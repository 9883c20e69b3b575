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
	k.dirs.put(r.ID, ino.VV, other)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "does not encode to its committed") {
			t.Fatalf("the update panicked with %q", msg)
		}
	}()
	k.dirInsert(r.ID, "c", storage.InodeNum(5)) //nolint:errcheck // it must not return
	t.Fatal("an update of a snapshot that is not the committed directory went through")
}
