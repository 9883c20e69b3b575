package fs

// White-box tests of who holds which inode: the in-process transport
// passes pointers, so a handle built from an open reply holds the very
// inode the storage site committed unless somebody copies it.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// bootSolo brings up a one-site cluster for direct handler calls.
func bootSolo(t testing.TB) *Kernel {
	return bootSites(t, 1)[0]
}

// bootSites brings up an n-site cluster whose every site is a pack of
// the root filegroup; the kernel of site i+1 is at index i.
func bootSites(t testing.TB, n int) []*Kernel {
	t.Helper()
	return bootFeatureSites(t, n, Features{})
}

// bootFeatureSites is bootSites booted with the feature selection ft.
func bootFeatureSites(t testing.TB, n int, ft Features) []*Kernel {
	t.Helper()
	nw := netsim.New(netsim.DefaultCosts())
	t.Cleanup(nw.Close)
	packs := make([]PackDesc, n)
	for i := range packs {
		lo := storage.InodeNum(1 + 1000*i)
		packs[i] = PackDesc{Site: SiteID(i + 1), Lo: lo, Hi: lo + 999}
	}
	cfg, err := NewConfig([]FilegroupDesc{{FG: 1, MountPath: "/", Packs: packs}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Features = ft
	ks := make([]*Kernel, n)
	byID := make(map[SiteID]*Kernel, n)
	for i, p := range packs {
		k, err := BootSite(nw.AddSite(p.Site), cfg, nw.Meter(), storage.Costs{})
		if err != nil {
			t.Fatal(err)
		}
		ks[i], byID[p.Site] = k, k
	}
	if err := Format(byID, cfg); err != nil {
		t.Fatal(err)
	}
	return ks
}

// solo4 is a one-site kernel holding a committed 4-page file /f, for the
// tests that watch what an open does with the file's inode.
func solo4(tb testing.TB) (k *Kernel, id storage.FileID, data []byte) {
	k = bootSolo(tb)
	cr := DefaultCred("tester")
	f, err := k.Create(cr, "/f", storage.TypeRegular, 0644)
	if err != nil {
		tb.Fatal(err)
	}
	data = bytes.Repeat([]byte{'x'}, 4*storage.PageSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return k, f.ID(), data
}

// TestOpenSharesOrOwnsItsInode: a read or internal handle holds the
// committed inode itself, a modify open makes exactly two copies of it —
// the in-core inode at the US and the one at the SS — and File.Inode
// hands the caller a third that is nobody else's, as Stat does.
func TestOpenSharesOrOwnsItsInode(t *testing.T) {
	k, id, _ := solo4(t)
	committed, err := k.container(id.FG).GetInode(id.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := k.Stat(DefaultCred("tester"), "/f"); err != nil || st == committed {
		t.Fatalf("Stat = %p, %v: want a copy of the committed inode %p", st, err, committed)
	}
	for _, mode := range []OpenMode{ModeRead, ModeInternal} {
		f, err := k.OpenID(id, mode)
		if err != nil {
			t.Fatal(err)
		}
		if f.ino != committed {
			t.Errorf("a mode-%d handle holds a copy of the committed inode", mode)
		}
		if f.dirty != nil {
			t.Errorf("a mode-%d handle was given a dirty-page map it never writes", mode)
		}
		if pub := f.Inode(); pub == committed || !reflect.DeepEqual(pub, committed) {
			t.Errorf("File.Inode of a mode-%d handle = %+v, want a copy of %+v", mode, pub, committed)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	f, err := k.OpenID(id, ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	incore := k.ssState[id].incore
	if f.ino == committed || incore == committed || f.ino == incore {
		t.Fatalf("modify open: handle %p, SS in-core %p and committed %p inodes must be three", f.ino, incore, committed)
	}
	if err := f.Truncate(5); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 5 || f.Inode().Size != 5 || committed.Size != 4*storage.PageSize {
		t.Fatalf("after Truncate(5): handle sees %d, its inode %d, the committed inode %d", f.Size(), f.Inode().Size, committed.Size)
	}
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != committed.Size || f.ino == committed || k.ssState[id].incore == committed {
		t.Fatalf("after Abort: size %d, want %d, and both in-core inodes fresh copies", f.Size(), committed.Size)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if now, _ := k.container(id.FG).GetInode(id.Inode); now != committed {
		t.Fatal("an aborted modify open replaced the committed inode")
	}

	// The same abort from a site that stores nothing reloads the
	// handle's inode from the SS's reply, which carries the committed
	// inode itself.
	nw := k.node.Network()
	k2, err := BootSite(nw.AddSite(2), k.cfg, nw.Meter(), storage.Costs{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := k2.OpenID(id, ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Abort(); err != nil {
		t.Fatal(err)
	}
	if g.ino == committed {
		t.Fatal("after a remote Abort the modify handle holds the committed inode")
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOpenReadClose is the scan workloads' inner step by pathname:
// Kernel.Open, ReadAll and Close of a 4-page file, at the site that stores
// it (local: no message) and at one that stores nothing (no-copy, no
// message either: the look at / is the delegation its first look was
// granted, and f's read delegation serves the open and the close; the
// pages come from the using-site cache. 2 while the look at / was a
// confirming exchange, 4 while the open and close went to the CSS).
func BenchmarkOpenReadClose(b *testing.B) {
	k1, _, data := solo4(b)
	nw := k1.node.Network()
	k2, err := BootSite(nw.AddSite(2), k1.cfg, nw.Meter(), storage.Costs{})
	if err != nil {
		b.Fatal(err)
	}
	cr := DefaultCred("tester")
	step := func(b *testing.B, k *Kernel) {
		f, err := k.Open(cr, "/f", ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		got, err := f.ReadAll()
		if err != nil || len(got) != len(data) {
			b.Fatalf("ReadAll = %d bytes, %v", len(got), err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		k    *Kernel
	}{{"local", k1}, {"no-copy", k2}} {
		b.Run(bc.name, func(b *testing.B) {
			step(b, bc.k) // fills the directory and page caches
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			before := nw.Stats()
			for i := 0; i < b.N; i++ {
				step(b, bc.k)
			}
			b.ReportMetric(float64(nw.Stats().Sub(before).Msgs)/float64(b.N), "msgs/op")
		})
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
