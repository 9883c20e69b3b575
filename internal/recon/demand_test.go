package recon_test

import (
	"errors"
	"testing"

	"repro/internal/fs"
)

func TestDemandReconcileDirectory(t *testing.T) {
	// §4.4: "we support demand recovery ... a particular directory can
	// be reconciled out of order to allow access to it with only a
	// small delay". A user needing /hot after a merge reconciles just
	// that directory, without waiting for the full sweep.
	h := newHarness(t, 2)
	if err := h.c.K(1).Mkdir(cred(), "/hot", 0755); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	write(t, h.c.K(1), "/hot/from1", "a")
	write(t, h.c.K(2), "/hot/from2", "b")

	// Heal the network but do NOT run the full reconciliation sweep.
	if err := h.c.Heal(); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()

	// Demand-reconcile just /hot from site 1.
	r, err := h.c.K(1).Resolve(cred(), "/hot")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.r(1).DemandReconcile(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirsMerged != 1 {
		t.Fatalf("report %+v, want 1 directory merged", rep)
	}
	h.c.Settle()

	ents := dirNames(t, h.c.K(2), "/hot")
	if len(ents) != 2 {
		t.Fatalf("after demand recovery /hot = %v", ents)
	}
}

func TestDemandReconcileNoopWhenConsistent(t *testing.T) {
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/f", "same")
	h.c.Settle()
	r, err := h.c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := h.r(1).DemandReconcile(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DirsMerged+rep.Propagated+rep.ConflictsReported != 0 {
		t.Fatalf("consistent file produced work: %+v", rep)
	}
}

func TestDemandReconcilePathStaleCopy(t *testing.T) {
	// A stale (dominated) replica is brought current on demand.
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/f", "v1")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	update(t, h.c.K(1), "/f", "v2")
	if err := h.c.Heal(); err != nil {
		t.Fatal(err)
	}
	// No sweep; demand only.
	rep, err := h.r(2).DemandReconcilePath(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Propagated != 1 {
		t.Fatalf("report %+v, want 1 propagation", rep)
	}
	if got := read(t, h.c.K(2), "/f"); got != "v2" {
		t.Fatalf("after demand recovery site 2 reads %q", got)
	}
}

func TestDemandReconcileMissingPath(t *testing.T) {
	h := newHarness(t, 2)
	if _, err := h.r(1).DemandReconcilePath(cred(), "/nope"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}
