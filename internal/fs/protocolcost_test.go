package fs_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestProtocolMessageCostsPinned pins the paper's per-operation wire
// message counts (§2.3.3–§2.3.6: general open = 4, read = 2, write = 1,
// commit = 2 + one notification per other replica plus the CSS,
// close = 4) via Snapshot.Sub, so transport-layer refactors provably
// change no wire traffic.
func TestProtocolMessageCostsPinned(t *testing.T) {
	pinProtocolCosts(t, false, nil)
}

// TestProtocolCostsUnchangedWithFaultPlaneArmed re-pins the same exact
// counts with the fault plane constructed but disabled (zero rates, no
// scripted points): arming the adversary, the at-most-once sequence
// numbers on every mutating call, and the callee-side dedup tables must
// add zero wire messages and zero fault events.
func TestProtocolCostsUnchangedWithFaultPlaneArmed(t *testing.T) {
	pinProtocolCosts(t, true, nil)
}

// TestProtocolCostsUnchangedAfterLeaseCycle re-pins the exact legacy
// counts on a cluster that ran a full lease cycle first and was then
// switched back with SetFeatures(Features{}). The zero value must
// reproduce the paper's protocol byte for byte: no lease state may
// linger and change a single wire message.
func TestProtocolCostsUnchangedAfterLeaseCycle(t *testing.T) {
	pinProtocolCosts(t, false, func(c *cluster.Cluster) {
		featureCycle(t, c, fs.Features{Leases: true}, 2, 3)
	})
}

// TestPinsUnchangedAfterAllFeaturesCycle does the same with every
// Features field on during the cycle, and re-pins the bulk-pull costs
// as well as the 4/2/1/4 protocol costs afterwards.
func TestPinsUnchangedAfterAllFeaturesCycle(t *testing.T) {
	all := fs.Features{SerialPull: true, NoPageCache: true, Readahead: true, Leases: true}
	pinProtocolCosts(t, false, func(c *cluster.Cluster) { featureCycle(t, c, all, 2, 3) })
	pinPropagationCosts(t, func(c *cluster.Cluster) { featureCycle(t, c, all, 2, 1) })
}

// featureCycle runs ft on every site of c through an
// open/read/write/commit/close cycle — a read delegation at the reader
// site (grant, local reopen, local closes), then a writer lease at the
// writer site (recalls the delegation, then a leased wire-free close)
// — and switches back to Features{}, which releases every held lease
// (the writer lease performs its deferred close). No lease state may
// be left anywhere.
func featureCycle(t *testing.T, c *cluster.Cluster, ft fs.Features, readerSite, writerSite fs.SiteID) {
	t.Helper()
	reader, writer := c.K(readerSite), c.K(writerSite)
	c.SetFeatures(ft)
	writeFile(t, c.K(1), "/warm", bytes.Repeat([]byte{'w'}, storage.PageSize))
	settle(t, c)
	r, err := reader.Resolve(cred(), "/warm")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		f, err := reader.OpenID(r.ID, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAll(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	w, err := writer.OpenID(r.ID, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(bytes.Repeat([]byte{'x'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c.SetFeatures(fs.Features{})
	settle(t, c)
	for _, s := range c.Sites() {
		if n := len(c.K(s).Leases()); n != 0 {
			t.Fatalf("site %d still holds %d lease(s) after SetFeatures(Features{})", s, n)
		}
		if n := len(c.K(s).Delegates()); n != 0 {
			t.Fatalf("site %d still records %d delegate file(s) after SetFeatures(Features{})", s, n)
		}
	}
}

func pinProtocolCosts(t *testing.T, armFaultPlane bool, prepare func(c *cluster.Cluster)) {
	c := newCluster(t, 4) // CSS = site 1
	if armFaultPlane {
		c.Net.EnableFaults(netsim.FaultConfig{Seed: 1})
	}
	if prepare != nil {
		prepare(c)
	}
	writeFile(t, c.K(3), "/pin", bytes.Repeat([]byte{'p'}, 2*storage.PageSize))
	// Store the file at sites 3 and 4 only: the CSS (1) holds no copy
	// and US = 2 is purely a using site.
	if err := c.K(3).SetReplication(cred(), "/pin", []fs.SiteID{3, 4}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	r, err := c.K(2).Resolve(cred(), "/pin")
	if err != nil {
		t.Fatal(err)
	}

	delta := func(op func()) netsim.Snapshot {
		before := c.Net.Stats()
		op()
		return c.Net.Stats().Sub(before)
	}
	check := func(what string, d netsim.Snapshot, msgs int64, byMeth map[string]int64) {
		t.Helper()
		if d.Msgs != msgs {
			t.Errorf("%s: %d wire messages, want %d (%v)", what, d.Msgs, msgs, d.ByMethod)
		}
		for m, n := range byMeth {
			if d.ByMethod[m] != n {
				t.Errorf("%s: %d %s messages, want %d", what, d.ByMethod[m], m, n)
			}
		}
		if d.MsgsDropped != 0 || d.MsgsDuped != 0 || d.MsgsDelayed != 0 || d.CircuitResets != 0 {
			t.Errorf("%s: fault counters moved on a fault-free network: dropped=%d duped=%d delayed=%d resets=%d",
				what, d.MsgsDropped, d.MsgsDuped, d.MsgsDelayed, d.CircuitResets)
		}
	}

	// General open (US=2, CSS=1, SS=3): request to CSS + CSS polls SS.
	var f *fs.File
	d := delta(func() {
		f, err = c.K(2).OpenID(r.ID, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
	})
	check("open(read)", d, 4, map[string]int64{"fs.open": 2, "fs.ssopen": 2})

	// Network read: exactly the two-message exchange of §2.3.3 (cold
	// cache, no readahead).
	buf := make([]byte, storage.PageSize)
	d = delta(func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	check("read page", d, 2, map[string]int64{"fs.read": 2})

	// Close: the 4-message protocol (US→SS, SS→CSS).
	d = delta(func() {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("close(read)", d, 4, map[string]int64{"fs.close": 2, "fs.ssclose": 2})

	// Open for modify, then a whole-page write: one one-way message.
	w, err := c.K(2).OpenID(r.ID, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	d = delta(func() {
		if _, err := w.WriteAt(bytes.Repeat([]byte{'q'}, storage.PageSize), 0); err != nil {
			t.Fatal(err)
		}
	})
	check("write page", d, 1, map[string]int64{"fs.write": 1})

	// Commit: the 2-message commit exchange plus one one-way
	// notification to the other replica (site 4) and one to the CSS
	// (site 1) — "1 per replica" in the paper's accounting.
	d = delta(func() {
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	check("commit", d, 4, map[string]int64{"fs.commit": 2, "fs.propnotify": 2})

	// Close of the committed writer: 4 messages again.
	d = delta(func() {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("close(modify)", d, 4, map[string]int64{"fs.close": 2, "fs.ssclose": 2})
}

// TestPropagationCostsPinned pins the wire cost of bringing a replica
// current (§2.3.6 pull propagation). With bulk pull on, the open
// piggybacks the first window, so a pull of P modified pages costs
// 1+⌈max(0,P−W)/W⌉ request/response pairs — at or under the 1+⌈P/W⌉
// bound of the windowed protocol. Under Features.SerialPull it costs
// the legacy 1+P pairs, so the old per-page accounting stays pinnable.
func TestPropagationCostsPinned(t *testing.T) {
	pinPropagationCosts(t, nil)
}

func pinPropagationCosts(t *testing.T, prepare func(c *cluster.Cluster)) {
	const W = fs.PullWindow // 8
	c := newCluster(t, 2)
	if prepare != nil {
		prepare(c)
	}
	writeFile(t, c.K(1), "/pin", bytes.Repeat([]byte{'a'}, 12*storage.PageSize))
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/pin")
	if err != nil {
		t.Fatal(err)
	}

	// modify overwrites the first p pages at site 1 and commits.
	modify := func(p int, fill byte) {
		t.Helper()
		w, err := c.K(1).OpenID(r.ID, fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < p; i++ {
			if _, err := w.WriteAt(bytes.Repeat([]byte{fill}, storage.PageSize), int64(i)*storage.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	pull := func() netsim.Snapshot {
		before := c.Net.Stats()
		settle(t, c)
		return c.Net.Stats().Sub(before)
	}
	check := func(what string, d netsim.Snapshot, msgs int64, byMeth map[string]int64, windows, pages int64) {
		t.Helper()
		if d.Msgs != msgs {
			t.Errorf("%s: %d wire messages, want %d (%v)", what, d.Msgs, msgs, d.ByMethod)
		}
		for _, m := range []string{"fs.pullopen", "fs.pullpages", "fs.readphys"} {
			if d.ByMethod[m] != byMeth[m] {
				t.Errorf("%s: %d %s messages, want %d", what, d.ByMethod[m], m, byMeth[m])
			}
		}
		if d.PullWindowsSent != windows || d.PullPagesSent != pages {
			t.Errorf("%s: windows=%d pages=%d sent, want windows=%d pages=%d",
				what, d.PullWindowsSent, d.PullPagesSent, windows, pages)
		}
	}

	// P=10 > W: 1+⌈(10−8)/8⌉ = 2 pairs — the open (piggybacking the
	// first 8 of the 10 needed pages, not all 12 stored ones) plus one
	// fs.pullpages window with the remaining 2.
	modify(10, 'b')
	check("bulk pull P=10", pull(), 4,
		map[string]int64{"fs.pullopen": 2, "fs.pullpages": 2}, 2, 10)

	// P=3 ≤ W: the whole pull collapses into the single open exchange.
	modify(3, 'c')
	check("bulk pull P=3", pull(), 2,
		map[string]int64{"fs.pullopen": 2}, 1, 3)

	// Ablation: the legacy protocol pays 1+P pairs, one fs.readphys
	// exchange per modified page, and sends no bulk windows.
	c.K(2).SetFeatures(fs.Features{SerialPull: true})
	modify(10, 'd')
	check("serial pull P=10", pull(), 22,
		map[string]int64{"fs.pullopen": 2, "fs.readphys": 20}, 0, 0)
	c.K(2).SetFeatures(fs.Features{})

	got := readFile(t, c.K(2), "/pin")
	want := append(bytes.Repeat([]byte{'d'}, 10*storage.PageSize), bytes.Repeat([]byte{'a'}, 2*storage.PageSize)...)
	if !bytes.Equal(got, want) {
		t.Fatal("replica content diverged across pull variants")
	}
}

// TestHiddenDirectoryOpenedOnce counts what resolving /bin/who through a
// hidden directory costs a site that stores none of it: four internal
// opens, one each of /, /bin, the hidden directory /bin/who and the
// context entry vax. The look that finds /bin's and /bin/who's type also
// serves the read of their content (and the hidden directory's site
// list), where the search used to look at each of them once for the type
// and again for the content (12 fs.open messages then, 14 before that).
// The directories' pages cross on the first search only.
func TestHiddenDirectoryOpenedOnce(t *testing.T) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
		Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	k1 := c.K(1)
	if err := k1.Mkdir(cred(), "/bin", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k1.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k1, "/bin/who@@/vax", []byte("VAX load module"))
	settle(t, c)
	hidden, err := k1.Resolve(cred(), "/bin/who@@")
	if err != nil {
		t.Fatal(err)
	}
	vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	for _, reads := range []int64{6, 0} {
		before := c.Net.Stats()
		r, err := c.K(3).Resolve(vax, "/bin/who")
		if err != nil {
			t.Fatal(err)
		}
		d := c.Net.Stats().Sub(before)
		if r.Name != "vax" || r.Parent != hidden.ID || !reflect.DeepEqual(r.ParentSites, []fs.SiteID{1, 2}) {
			t.Errorf("Resolve = %+v, want the vax entry of %v, stored at sites 1 and 2", *r, hidden.ID)
		}
		if d.ByMethod["fs.open"] != 8 || d.ByMethod["fs.read"] != reads || d.Msgs != 8+reads {
			t.Errorf("the search sent %d messages (%v), want 8 fs.open and %d fs.read", d.Msgs, d.ByMethod, reads)
		}
	}
}
