package fs_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
)

func TestConcurrentWritersDifferentFilesAcrossSites(t *testing.T) {
	c := newCluster(t, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := c.K(fs.SiteID(1 + w%4))
			path := fmt.Sprintf("/file-%02d", w)
			f, err := k.Create(cred(), path, storage.TypeRegular, 0644)
			if err != nil {
				errs <- fmt.Errorf("%s create: %w", path, err)
				return
			}
			for i := 0; i < 5; i++ {
				if err := f.WriteAll([]byte(fmt.Sprintf("%s rev %d", path, i))); err != nil {
					errs <- err
					return
				}
				if err := f.Commit(); err != nil {
					errs <- err
					return
				}
			}
			if err := f.Close(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settle(t, c)
	for w := 0; w < 16; w++ {
		got := readFile(t, c.K(fs.SiteID(1+(w+2)%4)), fmt.Sprintf("/file-%02d", w))
		want := fmt.Sprintf("/file-%02d rev 4", w)
		if string(got) != want {
			t.Errorf("file %d: %q want %q", w, got, want)
		}
	}
}

func TestConcurrentReadersDuringModify(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("committed-v1"))
	settle(t, c)

	w, err := c.K(1).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll([]byte("uncommitted")); err != nil {
		t.Fatal(err)
	}
	// Many concurrent readers across sites must all see committed data.
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := c.K(fs.SiteID(1 + i%3))
			f, err := k.Open(cred(), "/f", fs.ModeRead)
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			defer f.Close() //nolint:errcheck
			d, err := f.ReadAll()
			if err != nil || string(d) != "committed-v1" {
				t.Errorf("reader %d saw %q, %v", i, d, err)
			}
		}(i)
	}
	wg.Wait()
	if err := w.Close(); err != nil { // commits "uncommitted"
		t.Fatal(err)
	}
}

func TestNestedMounts(t *testing.T) {
	packs := func(s fs.SiteID) []fs.PackDesc {
		return []fs.PackDesc{{Site: s, Lo: 1, Hi: 1000}}
	}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{
		{FG: 1, MountPath: "/", Packs: packs(1)},
		{FG: 2, MountPath: "/a", Packs: packs(2)},
		{FG: 3, MountPath: "/a/b", Packs: packs(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg)
	writeFile(t, c.K(1), "/a/b/deep", []byte("nested"))
	settle(t, c)
	r, err := c.K(3).Resolve(cred(), "/a/b/deep")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID.FG != 3 {
		t.Fatalf("deep file in fg %d, want 3", r.ID.FG)
	}
	if got := readFile(t, c.K(2), "/a/b/deep"); string(got) != "nested" {
		t.Fatalf("read %q", got)
	}
	// The intermediate mounted fg works too.
	writeFile(t, c.K(1), "/a/mid", []byte("m"))
	r, err = c.K(1).Resolve(cred(), "/a/mid")
	if err != nil || r.ID.FG != 2 {
		t.Fatalf("mid: %+v %v", r, err)
	}
}

func TestRenameDirectoryKeepsSubtree(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	if err := k.Mkdir(cred(), "/old", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/old/child", []byte("x"))
	if err := k.Rename(cred(), "/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, k, "/new/child"); string(got) != "x" {
		t.Fatalf("read %q", got)
	}
	if _, err := k.Stat(cred(), "/old"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("old name: %v", err)
	}
	settle(t, c)
	if got := readFile(t, c.K(2), "/new/child"); string(got) != "x" {
		t.Fatalf("site 2 read %q", got)
	}
}

func TestRenameOntoExistingNameFails(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	writeFile(t, k, "/a", []byte("a"))
	writeFile(t, k, "/b", []byte("b"))
	if err := k.Rename(cred(), "/a", "/b"); !errors.Is(err, fs.ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
	// Nothing was damaged.
	if got := readFile(t, k, "/b"); string(got) != "b" {
		t.Fatalf("b = %q", got)
	}
}

func TestInodeExhaustion(t *testing.T) {
	packs := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 5}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: packs}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg)
	k := c.K(1)
	// Root uses inode 1; four remain.
	made := 0
	for i := 0; i < 10; i++ {
		f, err := k.Create(cred(), fmt.Sprintf("/f%d", i), storage.TypeRegular, 0644)
		if err != nil {
			if !errors.Is(err, storage.ErrInodeSpace) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		made++
	}
	if made != 4 {
		t.Fatalf("created %d files before exhaustion, want 4", made)
	}
	// Unlink + GC frees a slot.
	if err := k.Unlink(cred(), "/f0"); err != nil {
		t.Fatal(err)
	}
	if n := k.CollectGarbage(); n != 1 {
		t.Fatalf("gc = %d", n)
	}
	f, err := k.Create(cred(), "/reborn", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatalf("create after gc: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHiddenDirNestedUnderHidden(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	if err := k.MkHidden(cred(), "/cmd", 0755); err != nil {
		t.Fatal(err)
	}
	// Each context entry is itself a directory containing a binary.
	if err := k.Mkdir(cred(), "/cmd@@/vax", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/cmd@@/vax/run", []byte("vax binary"))
	vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	// "/cmd/run" expands through the hidden directory to /cmd@@/vax/run.
	f, err := k.Open(vax, "/cmd/run", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := f.ReadAll()
	f.Close() //nolint:errcheck
	if string(d) != "vax binary" {
		t.Fatalf("read %q", d)
	}
}

func TestAbortReleasesShadowPagesNoLeak(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	writeFile(t, k, "/f", bytes.Repeat([]byte{'x'}, storage.PageSize))
	cont := k.Store().Container(1)
	base := cont.PageCount()
	f, err := k.Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte('a' + i)}, storage.PageSize), int64(i)*storage.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := cont.PageCount(); got != base {
		t.Fatalf("page count %d after abort, want %d (no shadow leak)", got, base)
	}
}

func TestCloseWithoutCommitDiscardsNothingCommitted(t *testing.T) {
	// Close auto-commits dirty pages; but a handle that wrote then
	// aborted, then closed, leaves the old version.
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", []byte("keep"))
	f, err := c.K(1).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("discard")); err != nil {
		t.Fatal(err)
	}
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, c.K(1), "/f"); string(got) != "keep" {
		t.Fatalf("got %q", got)
	}
}

func TestSecondOpenAfterCommitSeesNewSize(t *testing.T) {
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", []byte("12345"))
	settle(t, c)
	f, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := c.K(2).Open(cred(), "/f", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	d, err := g.ReadAll()
	if err != nil || len(d) != 9 {
		t.Fatalf("read %d bytes, %v", len(d), err)
	}
}

func TestManyFilesGCAfterMassUnlink(t *testing.T) {
	c := newCluster(t, 3)
	k := c.K(1)
	const n = 30
	for i := 0; i < n; i++ {
		writeFile(t, k, fmt.Sprintf("/f%02d", i), []byte("data"))
	}
	settle(t, c)
	for i := 0; i < n; i++ {
		if err := k.Unlink(cred(), fmt.Sprintf("/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, c)
	total := 0
	for _, s := range c.Sites() {
		total += c.K(s).CollectGarbage()
	}
	if total != n {
		t.Fatalf("gc reclaimed %d, want %d", total, n)
	}
	ents, err := k.ReadDir(cred(), "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("root still lists %v", ents)
	}
}

func TestGCDeferredWhileSiteUnreachable(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("x"))
	settle(t, c)
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
	if err := c.K(1).Unlink(cred(), "/f"); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	// Site 3 has not seen the delete: GC must hold off.
	if n := c.K(1).CollectGarbage(); n != 0 {
		t.Fatalf("gc reclaimed %d with a pack unreachable, want 0", n)
	}
	c.Heal()
	settle(t, c)
	// The first GC pass after heal discovers site 3's stale live copy
	// and schedules the tombstone pull; after it lands, collection
	// succeeds.
	if n := c.K(1).CollectGarbage(); n != 0 {
		t.Fatalf("first gc after heal = %d, want 0 (nudge only)", n)
	}
	settle(t, c)
	if n := c.K(1).CollectGarbage(); n != 1 {
		t.Fatalf("gc after tombstone propagation = %d, want 1", n)
	}
}

func TestStatAndReadDirOnMountPoint(t *testing.T) {
	packs1 := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}}
	packs2 := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{
		{FG: 1, MountPath: "/", Packs: packs1},
		{FG: 2, MountPath: "/mnt", Packs: packs2},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg)
	k := c.K(1)
	writeFile(t, k, "/mnt/inside", []byte("z"))
	ino, err := k.Stat(cred(), "/mnt")
	if err != nil {
		t.Fatal(err)
	}
	if ino.Num != fs.RootInode {
		t.Fatalf("mount point stat resolves inode %d, want filegroup root", ino.Num)
	}
	ents, err := k.ReadDir(cred(), "/mnt")
	if err != nil || len(ents) != 1 || ents[0].Name != "inside" {
		t.Fatalf("ReadDir(/mnt) = %v, %v", ents, err)
	}
}

func TestWriteAtSparseThenTruncateGrow(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	f, err := k.Create(cred(), "/s", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("end"), 3*storage.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(storage.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), storage.PageSize-2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, k, "/s")
	if int64(len(got)) != storage.PageSize+2 {
		t.Fatalf("size %d", len(got))
	}
	if string(got[storage.PageSize-2:]) != "tail" {
		t.Fatalf("tail = %q", got[storage.PageSize-2:])
	}
}

func TestVersionVectorGrowthAcrossSites(t *testing.T) {
	// Updates committed at different storage sites bump different
	// vector entries.
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("v0"))
	settle(t, c)
	for _, s := range []fs.SiteID{2, 3, 1} {
		f, err := c.K(s).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAll([]byte(fmt.Sprintf("from %d", s))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		settle(t, c)
	}
	ino, err := c.K(1).Stat(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	// Each site served as SS at least once (US==SS because copies are
	// everywhere after settle).
	for s := fs.SiteID(1); s <= 3; s++ {
		if ino.VV.Get(s) == 0 {
			t.Fatalf("vector %v missing site %d", ino.VV, s)
		}
	}
}

func TestOpenModifyWhileWriterAtAnotherSiteThenRetry(t *testing.T) {
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", []byte("x"))
	settle(t, c)
	w1, err := c.K(1).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	// 20 denied attempts do not corrupt lock state.
	for i := 0; i < 20; i++ {
		if _, err := c.K(2).Open(cred(), "/f", fs.ModeModify); !errors.Is(err, fs.ErrBusy) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}
