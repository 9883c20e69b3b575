package fs

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/storage"
)

// FuzzNextComp: walking a path in place yields exactly the components
// that splitting it on "/" and dropping the empty and "." ones did.
func FuzzNextComp(f *testing.F) {
	for _, p := range []string{"/", "/d/f0007", "//d//f", "/d/./f/", "/d/f/.", "/d@@/f", "/a/../f", "relative", "", ".", "/./", "a//b/", "/.../.x/."} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, path string) {
		var want []string
		for _, c := range strings.Split(path, "/") {
			if c != "" && c != "." {
				want = append(want, c)
			}
		}
		var got []string
		for c, at := nextComp(path, 0); c != ""; c, at = nextComp(path, at) {
			if path[at-len(c):at] != c {
				t.Fatalf("nextComp(%q) returned %q ending at %d, which is %q there", path, c, at, path[at-len(c):at])
			}
			got = append(got, c)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("nextComp walks %q as %q, want %q", path, got, want)
		}
	})
}

// TestReadDirCarriedLookOvertaken: a search hands readDirByID the look
// that found the directory's type, and a commit elsewhere can overtake
// that version before the read. The read answers for one version whole:
// the looked-at one while the cache holds it, else — its pages are gone —
// a fresh look's. The directory spans pages, and the commit, a name that
// sorts first, moves every one of them, so a read that mixed versions
// would show. The reader is site 2: site 1 is the CSS, which makes every
// update and so always caches the newest version.
func TestReadDirCarriedLookOvertaken(t *testing.T) {
	ks := bootSites(t, 2)
	k1, k2 := ks[0], ks[1]
	cr := DefaultCred("tester")
	if err := k1.Mkdir(cr, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	r, err := k1.Resolve(cr, "/d")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i++ {
		if err := k1.dirInsert(r.ID, fmt.Sprintf("entry-%04d", i), storage.InodeNum(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	drain := func() {
		for _, k := range ks {
			k.DrainPropagation()
		}
	}
	drain()
	look, ss, err := k2.lookInternal(r.ID)
	if err != nil || look.Size <= storage.PageSize {
		t.Fatalf("the look found %+v, %v; the test needs a directory of two pages or more", look, err)
	}
	if _, _, err := k2.readDirByID(r.ID, look, ss); err != nil {
		t.Fatal(err)
	}
	if err := k1.dirInsert(r.ID, "a-first", 99); err != nil {
		t.Fatal(err)
	}
	drain()
	if now, _, _ := k2.lookInternal(r.ID); now.VV.Equal(look.VV) {
		t.Fatal("site 2's copy was not overtaken")
	}

	read := func(what string) (*format.DirSnapshot, *storage.Inode) {
		t.Helper()
		d, ino, err := k2.readDirByID(r.ID, look, ss)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		return d, ino
	}
	// The cache holds the looked-at version: that snapshot, no page read.
	d, ino := read("cached")
	if _, stale := d.Lookup("a-first"); ino != look || stale || len(d.Live()) != n {
		t.Errorf("cached: %d entries at %v, want the %d of the looked-at version %v", len(d.Live()), ino.VV, n, look.VV)
	}
	// It does not: the pages read are not of the looked-at version, and the
	// retry reads the new one whole.
	k2.dirs.mu.Lock()
	k2.dirs.m = nil
	k2.dirs.mu.Unlock()
	d, ino = read("uncached")
	if _, fresh := d.Lookup("a-first"); ino.VV.Equal(look.VV) || !fresh || len(d.Live()) != n+1 {
		t.Errorf("uncached: %d entries at %v, want the %d of the version after %v", len(d.Live()), ino.VV, n+1, look.VV)
	}
}
