package fs

// White-box propagation tests: the pull-open handler sits on the
// in-process transport, where a returned pointer aliases origin state
// unless the handler clones it.

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// bootSolo brings up a one-site cluster for direct handler calls.
func bootSolo(t *testing.T) *Kernel {
	t.Helper()
	nw := netsim.New(netsim.DefaultCosts())
	t.Cleanup(nw.Close)
	cfg, err := NewConfig([]FilegroupDesc{{FG: 1, MountPath: "/",
		Packs: []PackDesc{{Site: 1, Lo: 1, Hi: 1000}}}})
	if err != nil {
		t.Fatal(err)
	}
	k, err := BootSite(nw.AddSite(1), cfg, nw.Meter(), storage.Costs{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Format(map[SiteID]*Kernel{1: k}, cfg); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestHandlePullOpenClonesInode is the regression test for the pull
// handler returning the origin's inode by pointer: a puller rewrites
// the page table of the inode it receives, and unless what the handler
// sends is a copy (GetInode's deep copy is the one) that rewrite would
// corrupt the origin's committed state through the in-process
// transport.
func TestHandlePullOpenClonesInode(t *testing.T) {
	k := bootSolo(t)
	cr := DefaultCred("tester")
	f, err := k.Create(cr, "/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{'x'}, 2*storage.PageSize)
	if _, err := f.WriteAt(want, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := k.Resolve(cr, "/f")
	if err != nil {
		t.Fatal(err)
	}

	por, err := k.handlePullOpen(1, &pullOpenReq{ID: r.ID, Window: PullWindow})
	if err != nil {
		t.Fatal(err)
	}
	if len(por.First) != 2 || len(por.FirstPhys) != 2 {
		t.Fatalf("piggyback window has %d/%d pages, want 2/2", len(por.First), len(por.FirstPhys))
	}
	// Do what a puller does: rewrite the received inode's page table
	// (and, for good measure, its version vector).
	for i := range por.Ino.Pages {
		por.Ino.Pages[i] = storage.PhysPage(7777 + i)
	}
	por.Ino.VV = por.Ino.VV.Bump(9)
	por.Ino.Size = 1

	c := k.container(r.ID.FG)
	ino, err := c.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range ino.Pages {
		if pp == storage.PhysPage(7777+i) {
			t.Fatalf("puller-side mutation reached the origin's committed page table: %v", ino.Pages)
		}
	}
	if ino.VV.Get(9) != 0 || ino.Size != int64(len(want)) {
		t.Fatalf("puller-side mutation reached the origin's committed inode: vv=%v size=%d", ino.VV, ino.Size)
	}
	if got := readFileAt(t, k, cr, "/f", len(want)); !bytes.Equal(got, want) {
		t.Fatal("origin content corrupted by puller-side mutation")
	}
}

func readFileAt(t *testing.T, k *Kernel, cr *Cred, path string, n int) []byte {
	t.Helper()
	f, err := k.Open(cr, path, ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf
}
