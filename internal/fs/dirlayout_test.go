package fs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/lint/invariant"
	"repro/internal/storage"
)

// TestUpdateDirAssertsItsLayout: updateDir writes only the pages an
// update changes, onto the committed directory, so the snapshot it
// edits must encode to the committed bytes: one that did not — another
// layout, other entries — would leave a directory whose pages do not
// fit each other, and nothing would report it. Under the invariant layer
// the update panics instead. The cache is handed a snapshot of /d at
// its committed version that holds another entry.
func TestUpdateDirAssertsItsLayout(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("the assertion is compiled in by -tags locusinvariants")
	}
	k := bootSolo(t)
	cred := DefaultCred("tester")
	if err := k.Mkdir(cred, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.Mkdir(cred, "/d/a", 0755); err != nil {
		t.Fatal(err)
	}
	r, err := k.Resolve(cred, "/d")
	if err != nil {
		t.Fatal(err)
	}
	ino, _, err := k.lookInternal(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	other, err := format.DecodeDirSnapshot(nil, format.EncodeDir(&format.Directory{Entries: []format.DirEntry{{Name: "b", Inode: 9}}}))
	if err != nil {
		t.Fatal(err)
	}
	k.dirs.put(r.ID, dirCacheEntry{ino: ino, dir: other})
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "does not encode to its committed") {
			t.Fatalf("the update panicked with %q", msg)
		}
	}()
	k.dirInsert(r.ID, "c", storage.InodeNum(5)) //nolint:errcheck // it must not return
	t.Fatal("an update of a snapshot that is not the committed directory went through")
}

// TestReReadAssertsReusedPages: a stale site's re-read (loadDir) takes
// the pages whose physical page number did not change from the snapshot
// it holds instead of reading them, so a number that named other bytes
// would make its snapshot another directory than the committed one.
// Under the invariant layer a re-read that skipped pages of a local
// storage site compares the result with the committed bytes. Site 2's
// entry for /d is made to claim the page number site 2 stores the
// changed page 0 under, after an update at site 1 that changed only it:
// the re-read skips every page, and panics.
func TestReReadAssertsReusedPages(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("the assertion is compiled in by -tags locusinvariants")
	}
	ks := bootSites(t, 2)
	cred := DefaultCred("tester")
	if err := ks[0].Mkdir(cred, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a0", "a1", "a2", "a3", "b0"} {
		f, err := ks[0].Create(cred, "/d/"+p+strings.Repeat("x", 990), storage.TypeRegular, 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.Close() //nolint:errcheck
	}
	ks[1].DrainPropagation()
	if _, err := ks[1].ReadDir(cred, "/d"); err != nil {
		t.Fatal(err)
	}
	r, err := ks[1].Resolve(cred, "/d")
	if err != nil {
		t.Fatal(err)
	}
	held := ks[1].dirs.entry(r.ID)
	f, err := ks[0].Create(cred, "/d/a0s", storage.TypeRegular, 0644) // in place on page 0
	if err != nil {
		t.Fatal(err)
	}
	f.Close() //nolint:errcheck
	ks[1].DrainPropagation()
	now, err := ks[1].container(r.ID.FG).GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if held.ss != 2 || len(now.Pages) != 2 || now.Pages[0] == held.ino.Pages[0] || now.Pages[1] != held.ino.Pages[1] || now.Size != int64(held.dir.Size()) {
		t.Fatalf("set-up: site 2 held /d from site %d on pages %v, stores %v of %d bytes now", held.ss, held.ino.Pages, now.Pages, now.Size)
	}
	forged := held.ino.Clone()
	forged.Pages = now.Pages
	held.ino = forged
	ks[1].dirs.put(r.ID, held)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "does not encode to its committed") {
			t.Fatalf("the re-read panicked with %q", msg)
		}
	}()
	ks[1].ReadDir(cred, "/d") //nolint:errcheck // it must not return
	t.Fatal("a re-read that took a changed page for the one it held went through")
}
