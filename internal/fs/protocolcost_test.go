package fs_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestProtocolMessageCostsPinned pins the paper's per-operation wire
// message counts (§2.3.3–§2.3.6: general open = 4, read = 2, write = 1,
// commit = 2 + one notification per other replica plus the CSS,
// close = 4) via Snapshot.Sub, with read delegations off (the paper's
// protocol), so transport-layer refactors provably change no wire
// traffic.
func TestProtocolMessageCostsPinned(t *testing.T) {
	pinProtocolCosts(t, false)
}

// TestProtocolCostsUnchangedWithFaultPlaneArmed re-pins the same exact
// counts with the fault plane constructed but disabled (zero rates):
// arming the adversary, the at-most-once sequence
// numbers on every mutating call, and the callee-side dedup tables must
// add zero wire messages and zero fault events.
func TestProtocolCostsUnchangedWithFaultPlaneArmed(t *testing.T) {
	pinProtocolCosts(t, true)
}

func pinProtocolCosts(t *testing.T, armFaultPlane bool) {
	c := featureCluster(t, 4, fs.Features{NoDelegations: true}) // CSS = site 1
	if armFaultPlane {
		c.Net.EnableFaults(netsim.FaultConfig{Seed: 1})
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
	// cache; page 1 rides along as the first readahead page).
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

// TestCloseCommitCostPinned pins the close of a modify handle with
// changes outstanding, in TestProtocolMessageCostsPinned's cluster: the
// commit rides the fs.close, and its note to the CSS the fs.ssclose, so
// the close costs the 4-message protocol plus the note to the other
// replica, and no fs.commit exchange. At the storage site itself the
// fs.close is a procedure call.
func TestCloseCommitCostPinned(t *testing.T) {
	c := featureCluster(t, 4, fs.Features{NoDelegations: true}) // CSS = site 1
	writeFile(t, c.K(3), "/pin", bytes.Repeat([]byte{'p'}, 2*storage.PageSize))
	if err := c.K(3).SetReplication(cred(), "/pin", []fs.SiteID{3, 4}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	r, err := c.K(2).Resolve(cred(), "/pin")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		what   string
		us, ss fs.SiteID
		msgs   int64
		byMeth map[string]int64
	}{
		{"close(modify, dirty), remote SS", 2, 3, 5, map[string]int64{"fs.close": 2, "fs.ssclose": 2, "fs.propnotify": 1, "fs.commit": 0}},
		{"close(modify, dirty), US is the SS", 3, 3, 3, map[string]int64{"fs.close": 0, "fs.ssclose": 2, "fs.propnotify": 1, "fs.commit": 0}},
	} {
		w, err := c.K(row.us).OpenID(r.ID, fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.K(row.ss).ServingWriter(r.ID); got != row.us {
			t.Fatalf("%s: site %d serves writer %d, want site %d", row.what, row.ss, got, row.us)
		}
		if _, err := w.WriteAt(bytes.Repeat([]byte{'q'}, storage.PageSize), 0); err != nil {
			t.Fatal(err)
		}
		before := c.Net.Stats()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		d := c.Net.Stats().Sub(before)
		if d.Msgs != row.msgs {
			t.Errorf("%s: %d wire messages, want %d (%v)", row.what, d.Msgs, row.msgs, d.ByMethod)
		}
		for m, n := range row.byMeth {
			if d.ByMethod[m] != n {
				t.Errorf("%s: %d %s messages, want %d", row.what, d.ByMethod[m], m, n)
			}
		}
	}
}

// TestPropagationCostsPinned pins the wire cost of bringing a replica
// current (§2.3.6 pull propagation). With bulk pull on, the open
// piggybacks the first window, so a pull of P modified pages costs
// 1+⌈max(0,P−W)/W⌉ request/response pairs — at or under the 1+⌈P/W⌉
// bound of the windowed protocol. Under Features.SerialPull it costs
// the legacy 1+P pairs, so the old per-page accounting stays pinnable.
func TestPropagationCostsPinned(t *testing.T) {
	const W = fs.PullWindow // 8
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
	c, modify, pull := pullCluster(t, fs.Features{})
	modify(10, 'b')
	check("bulk pull P=10", pull(), 4,
		map[string]int64{"fs.pullopen": 2, "fs.pullpages": 2}, 2, 10)

	// P=3 ≤ W: the whole pull collapses into the single open exchange.
	modify(3, 'c')
	check("bulk pull P=3", pull(), 2,
		map[string]int64{"fs.pullopen": 2}, 1, 3)
	checkPinContent(t, c, "ccc"+strings.Repeat("b", 7)+"aa")

	// Ablation, on a cluster booted with it: the legacy protocol pays
	// 1+P pairs, one fs.readphys exchange per modified page, and sends
	// no bulk windows.
	c, modify, pull = pullCluster(t, fs.Features{SerialPull: true})
	modify(10, 'd')
	check("serial pull P=10", pull(), 22,
		map[string]int64{"fs.pullopen": 2, "fs.readphys": 20}, 0, 0)
	checkPinContent(t, c, strings.Repeat("d", 10)+"aa")
}

// pullCluster boots a two-site cluster with ft and a 12-page /pin of
// 'a's settled at both sites. modify overwrites the first p pages of
// /pin at site 1 with fill and commits; pull settles the cluster, site
// 2 pulling the new version, and returns what that sent.
func pullCluster(t *testing.T, ft fs.Features) (c *cluster.Cluster, modify func(p int, fill byte), pull func() netsim.Snapshot) {
	c = featureCluster(t, 2, ft)
	writeFile(t, c.K(1), "/pin", bytes.Repeat([]byte{'a'}, 12*storage.PageSize))
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/pin")
	if err != nil {
		t.Fatal(err)
	}
	modify = func(p int, fill byte) {
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
	pull = func() netsim.Snapshot {
		before := c.Net.Stats()
		settle(t, c)
		return c.Net.Stats().Sub(before)
	}
	return c, modify, pull
}

// checkPinContent fails the test unless /pin read at site 2 holds,
// page by page, the fill bytes pages names.
func checkPinContent(t *testing.T, c *cluster.Cluster, pages string) {
	t.Helper()
	var want []byte
	for _, fill := range []byte(pages) {
		want = append(want, bytes.Repeat([]byte{fill}, storage.PageSize)...)
	}
	if got := readFile(t, c.K(2), "/pin"); !bytes.Equal(got, want) {
		t.Fatalf("/pin read at site 2 is not the pages %q", pages)
	}
}

// TestHiddenDirectoryOpenedOnce counts what resolving /bin/who through a
// hidden directory costs a site that stores none of it. The first search
// makes four internal opens, one each of /, /bin, the hidden directory
// /bin/who and the context entry vax, and the directories' pages cross.
// The look that finds /bin's and /bin/who's type also serves the read of
// their content (and the hidden directory's site list), where the search
// used to look at each of them once for the type and again for the
// content (12 fs.open messages then, 14 before that). The second search
// reads every directory from the cache, and looks at each file again:
// four opens, and no page crosses. Under delegations the first search's
// looks at the three directories were granted delegations, and the
// second looks only at vax: one open.
func TestHiddenDirectoryOpenedOnce(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"resolve", func(t *testing.T) {
			cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
				Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}}})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Features = rg.features
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
			second := int64(8)
			if !rg.features.NoDelegations {
				second = 2
			}
			vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
			for _, pass := range []struct{ opens, reads int64 }{{8, 6}, {second, 0}} {
				opens, reads := pass.opens, pass.reads
				before := c.Net.Stats()
				r, err := c.K(3).Resolve(vax, "/bin/who")
				if err != nil {
					t.Fatal(err)
				}
				d := c.Net.Stats().Sub(before)
				if r.Name != "vax" || r.Parent != hidden.ID || !reflect.DeepEqual(r.ParentSites, []fs.SiteID{1, 2}) {
					t.Errorf("Resolve = %+v, want the vax entry of %v, stored at sites 1 and 2", *r, hidden.ID)
				}
				if d.ByMethod["fs.open"] != opens || d.ByMethod["fs.read"] != reads || d.Msgs != opens+reads {
					t.Errorf("the search sent %d messages (%v), want %d fs.open and %d fs.read", d.Msgs, d.ByMethod, opens, reads)
				}
			}
		})
	}
}
