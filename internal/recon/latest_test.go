package recon_test

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
)

// resolvedBeforePull builds the state a three-way partition leaves when
// one site resolves the conflict before the other two have pulled the
// resolution: /f updated apart at sites 1 ("A") and 2 ("B"), then, after
// the heal, site 3 keeps site 1's copy. Its commit dominates both
// copies, and sites 1 and 2 have the pull queued, not done. In pack
// order the copies are {1:3}, {1:2 2:1} and {1:3 2:1 3:1}: the first two
// conflict, the third covers them both, so the file is current, not in
// conflict.
func resolvedBeforePull(t *testing.T) (*harness, storage.FileID) {
	t.Helper()
	h := newHarness(t, 3)
	write(t, h.c.K(1), "/f", "base")
	h.c.Settle()
	res, err := h.c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2}, []fs.SiteID{3})
	update(t, h.c.K(1), "/f", "A")
	update(t, h.c.K(2), "/f", "B")
	if err := h.c.Heal(); err != nil {
		t.Fatal(err)
	}
	if err := h.r(3).ResolveKeep(res.ID, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []fs.SiteID{1, 2} {
		if h.c.K(s).PendingPropagations() == 0 {
			t.Fatalf("site %d has no pull queued; the scenario needs it pending", s)
		}
	}
	return h, res.ID
}

// TestOpenFindsDominatingCopyInAnyPackOrder: the CSS rebuilding its
// lock-table entry must pick the copy that covers the other two, not
// stop at the first concurrent pair it polls.
func TestOpenFindsDominatingCopyInAnyPackOrder(t *testing.T) {
	h, id := resolvedBeforePull(t)
	for _, s := range h.c.Sites() {
		f, err := h.c.K(s).OpenID(id, fs.ModeRead)
		if err != nil {
			t.Fatalf("site %d: open of the resolved file: %v", s, err)
		}
		data, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if string(data) != "A" {
			t.Fatalf("site %d reads %q, want the kept copy %q", s, data, "A")
		}
	}
}

// TestDemandReconcilePropagatesDominatingCopy: demand recovery of the
// same file is plain staleness — it propagates the dominating copy and
// marks and reports nothing.
func TestDemandReconcilePropagatesDominatingCopy(t *testing.T) {
	h, id := resolvedBeforePull(t)
	rep, err := h.r(1).DemandReconcile(id)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Propagated != 1 || rep.ConflictsReported != 0 {
		t.Fatalf("report %+v, want 1 propagation and no conflict", rep)
	}
	if confs := h.r(1).ListConflicts(); len(confs) != 0 {
		t.Fatalf("conflicts after demand recovery: %+v", confs)
	}
	h.c.Settle()
	for _, s := range h.c.Sites() {
		if got := read(t, h.c.K(s), "/f"); got != "A" {
			t.Fatalf("site %d reads %q, want %q", s, got, "A")
		}
	}
}
