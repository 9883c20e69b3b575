package fs_test

// Propagation under the fault plane: a lost bulk-pull window must
// leave the old coherent committed copy at the puller (§2.3.6 — the
// pull commits via the standard shadow-page mechanism, so a failure
// mid-transfer changes nothing), and the retry must resume the
// transfer without re-sending windows that already landed.

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func TestPullWindowLossLeavesOldCopyThenResumes(t *testing.T) {
	c := newCluster(t, 2)
	const pages = 20
	oldData := bytes.Repeat([]byte{'o'}, pages*storage.PageSize)
	writeFile(t, c.K(1), "/f", oldData)
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	pack2 := c.K(2).Store().Container(r.ID.FG)
	oldIno, err := pack2.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite every page at site 1; the commit notification queues a
	// 20-page pull at site 2: an 8-page window piggybacked on the open,
	// then fs.pullpages windows of 8 and 4.
	newData := bytes.Repeat([]byte{'n'}, pages*storage.PageSize)
	w, err := c.K(1).OpenID(r.ID, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(newData, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c.Net.Quiesce()

	// Drop the second fs.pullpages window and every at-most-once retry
	// of it (sends 2..9 of the method on the 2→1 link: the retry budget
	// is 8 transmissions), so the pull genuinely fails after the first
	// window landed. Each point keeps its own match counter and a
	// firing point ends that send's scan, so eight Nth=2 points fire on
	// eight consecutive matching sends starting at the second.
	var pts []netsim.FaultPoint
	for i := 0; i < 8; i++ {
		pts = append(pts, netsim.FaultPoint{From: 2, To: 1, Method: "fs.pullpages", Nth: 2, Action: netsim.FaultDropRequest})
	}
	c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
	if n := c.K(2).DrainPropagation(); n != 0 {
		t.Fatalf("pull succeeded through a dead window: %d", n)
	}
	c.Net.Quiesce()
	c.Net.DisableFaults()

	// The interrupted pull must not have touched the committed copy:
	// same version vector, same readable bytes, no conflict.
	ino, err := pack2.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if !ino.VV.Equal(oldIno.VV) || ino.Conflict {
		t.Fatalf("interrupted pull disturbed the committed copy: vv=%v (want %v) conflict=%v", ino.VV, oldIno.VV, ino.Conflict)
	}
	for i, pp := range ino.Pages {
		data, err := pack2.ReadPage(pp)
		if err != nil {
			t.Fatalf("old copy page %d unreadable after interrupted pull: %v", i, err)
		}
		if !bytes.Equal(data, oldData[i*storage.PageSize:(i+1)*storage.PageSize]) {
			t.Fatalf("old copy page %d corrupted after interrupted pull", i)
		}
	}

	// The retry resumes: the open is re-sent windowless (the 16 pages
	// that already landed are staged locally and must not travel
	// again), and only the missing 4-page window crosses the wire.
	before := c.Net.Stats()
	if n := c.K(2).DrainPropagation(); n != 1 {
		t.Fatalf("resumed pull drained %d files, want 1: %s", n, c.K(2).DebugPendingPropagations())
	}
	c.Net.Quiesce()
	d := c.Net.Stats().Sub(before)
	if d.ByMethod["fs.pullopen"] != 2 || d.ByMethod["fs.pullpages"] != 2 || d.ByMethod["fs.readphys"] != 0 {
		t.Fatalf("resume traffic = %v, want exactly one pullopen and one pullpages exchange", d.ByMethod)
	}
	if d.PullWindowsSent != 1 || d.PullPagesSent != 4 {
		t.Fatalf("resume sent %d windows / %d pages, want 1 window with the 4 missing pages", d.PullWindowsSent, d.PullPagesSent)
	}

	// The replica is current, and no shadow pages leaked from either
	// the dropped window or the staged resume bookkeeping.
	ino, err = pack2.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range ino.Pages {
		data, err := pack2.ReadPage(pp)
		if err != nil {
			t.Fatalf("new copy page %d unreadable: %v", i, err)
		}
		if !bytes.Equal(data, newData[i*storage.PageSize:(i+1)*storage.PageSize]) {
			t.Fatalf("new copy page %d has stale content", i)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after resumed pull: %v", findings)
	}
}
