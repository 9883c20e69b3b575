package fs_test

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestLeaseProtocolCostsPinned pins the wire message counts of read
// delegations, the exact economics they exist for:
//
//   - first read open piggybacks a delegation on the ordinary 4-message
//     open (zero extra messages);
//   - every later open/read/close of the delegated file is site-local
//     (zero wire messages — the per-open CSS round trip is gone);
//   - a conflicting modify open recalls all outstanding delegations in
//     exactly one batched revoke round (2 messages per delegate);
//   - the writer's commit and close are the paper's, and a later read
//     open is granted a delegation again, after which the delegation
//     economics resume.
//
// Counts are pinned with the fault plane armed at zero rates, like the
// legacy pins: the at-most-once plumbing under fs.leaserevoke must add
// no wire traffic of its own.
func TestLeaseProtocolCostsPinned(t *testing.T) {
	c := newCluster(t, 4) // CSS = site 1
	c.Net.EnableFaults(netsim.FaultConfig{Seed: 1})
	writeFile(t, c.K(3), "/pin", bytes.Repeat([]byte{'p'}, 2*storage.PageSize))
	// Store the file at sites 3 and 4 only: the CSS (1) holds no copy
	// and site 2 is purely a using site (same layout the legacy pins
	// use, so the deltas are directly comparable).
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
	check := func(what string, d netsim.Snapshot, msgs int64, byMeth map[string]int64, granted, revoked, rounds int64) {
		t.Helper()
		if d.Msgs != msgs {
			t.Errorf("%s: %d wire messages, want %d (%v)", what, d.Msgs, msgs, d.ByMethod)
		}
		for m, n := range byMeth {
			if d.ByMethod[m] != n {
				t.Errorf("%s: %d %s messages, want %d", what, d.ByMethod[m], m, n)
			}
		}
		if d.LeasesGranted != granted || d.LeasesRevoked != revoked || d.BatchedRevokes != rounds {
			t.Errorf("%s: granted=%d revoked=%d rounds=%d, want %d/%d/%d",
				what, d.LeasesGranted, d.LeasesRevoked, d.BatchedRevokes, granted, revoked, rounds)
		}
		if d.MsgsDropped != 0 || d.MsgsDuped != 0 || d.MsgsDelayed != 0 || d.CircuitResets != 0 {
			t.Errorf("%s: fault counters moved on a fault-free network: dropped=%d duped=%d delayed=%d resets=%d",
				what, d.MsgsDropped, d.MsgsDuped, d.MsgsDelayed, d.CircuitResets)
		}
	}

	// First read open (US=2, CSS=1, SS=3 or 4): the ordinary 4-message
	// open, with the read delegation piggybacked on the reply for free.
	var f *fs.File
	d := delta(func() {
		f, err = c.K(2).OpenID(r.ID, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
	})
	check("first open(read)", d, 4, map[string]int64{"fs.open": 2, "fs.ssopen": 2}, 1, 0, 0)

	// Cold read still pays the two-message exchange of §2.3.3.
	buf := make([]byte, storage.PageSize)
	d = delta(func() {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	check("read page (cold)", d, 2, map[string]int64{"fs.read": 2}, 0, 0, 0)

	// Close of a delegated handle: pure local bookkeeping.
	d = delta(func() {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("close under delegation", d, 0, nil, 0, 0, 0)

	// The steady state the layer buys: open, re-read (US cache, still
	// valid under the delegation's VV stamp), close — zero messages.
	d = delta(func() {
		g, err := c.K(2).OpenID(r.ID, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("reopen+read+close under delegation", d, 0, nil, 0, 0, 0)

	// A second using site gets its own delegation the same way.
	g4, err := c.K(4).OpenID(r.ID, fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := g4.Close(); err != nil {
		t.Fatal(err)
	}

	// Conflicting modify open at site 3 (its own SS): one batched round
	// recalls both delegations — 2 messages per remote delegate.
	var w *fs.File
	d = delta(func() {
		w, err = c.K(3).OpenID(r.ID, fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
	})
	check("open(modify), 2 delegates out", d, 6,
		map[string]int64{"fs.open": 2, "fs.leaserevoke": 4}, 0, 2, 1)

	// Write and commit cost exactly what they always cost — here the
	// writer is its own SS, so only the commit notifications (one to
	// the other replica, one to the CSS) hit the wire.
	d = delta(func() {
		if _, err := w.WriteAt(bytes.Repeat([]byte{'q'}, storage.PageSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	check("write+commit", d, 2, map[string]int64{"fs.propnotify": 2}, 0, 0, 0)

	// The writer's close is the paper's: its own storage site tells the
	// CSS.
	d = delta(func() {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("close(modify)", d, 2, map[string]int64{"fs.ssclose": 2}, 0, 0, 0)

	// A read open elsewhere is granted a delegation again, on the
	// ordinary open, and the delegation economics resume.
	d = delta(func() {
		f2, err := c.K(2).OpenID(r.ID, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := f2.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("open(read)+close after the writer", d, 4, map[string]int64{"fs.open": 2, "fs.ssopen": 2}, 1, 0, 0)
	d = delta(func() {
		f3, err := c.K(2).OpenID(r.ID, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := f3.Close(); err != nil {
			t.Fatal(err)
		}
	})
	check("reopen after writer transition", d, 0, nil, 0, 0, 0)
}
