package fs_test

// Pathname search opens nothing (§2.3.4's internal unsynchronized open,
// for a caller that only looks): the tests here pin what a search
// returns for every spelling of a path, what it allocates and registers,
// and that the look sends exactly what the open it replaced sent.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fs"
	"repro/internal/lint/invariant"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestResolvePathForms resolves one small tree — a directory, a mounted
// filegroup and a hidden directory — through every spelling the search
// accepts or refuses.
func TestResolvePathForms(t *testing.T) {
	packs := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{
		{FG: 1, MountPath: "/", Packs: packs},
		{FG: 2, MountPath: "/usr", Packs: packs},
	})
	if err != nil {
		t.Fatal(err)
	}
	k := newClusterCfg(t, cfg).K(1)
	for _, dir := range []string{"/d", "/bin"} {
		if err := k.Mkdir(cred(), dir, 0755); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/d/f", []byte("f"))
	writeFile(t, k, "/usr/g", []byte("g"))
	writeFile(t, k, "/bin/who@@/vax", []byte("vax"))

	vax := &fs.Cred{User: "u", HiddenCtx: []string{"cray", "vax"}}
	id := func(path string) storage.FileID {
		t.Helper()
		r, err := k.Resolve(vax, path)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", path, err)
		}
		return r.ID
	}
	root1 := storage.FileID{FG: 1, Inode: fs.RootInode}
	root2 := storage.FileID{FG: 2, Inode: fs.RootInode}
	sites := []fs.SiteID{1}
	f := fs.Resolved{ID: id("/d/f"), Parent: id("/d"), Name: "f", ParentSites: sites, Type: storage.TypeRegular}

	for _, tc := range []struct {
		path string
		cred *fs.Cred
		want fs.Resolved
		err  error
	}{
		{path: "/", want: fs.Resolved{ID: root1, Name: "/", ParentSites: sites, Type: storage.TypeDirectory}},
		{path: "//", want: fs.Resolved{ID: root1, Name: "/", ParentSites: sites, Type: storage.TypeDirectory}},
		{path: "/d", want: fs.Resolved{ID: f.Parent, Parent: root1, Name: "d", ParentSites: sites, Type: storage.TypeDirectory}},
		{path: "/d/f", want: f},
		{path: "//d//f", want: f},
		{path: "/d/./f/", want: f},
		{path: "/d/f/.", want: f},
		{path: "/./d/f", want: f},
		{path: "/d@@/f", want: f}, // the escape on a plain directory is dropped
		{path: "/d/f@@", want: f},

		{path: "relative", err: fs.ErrBadName},
		{path: "", err: fs.ErrBadName},
		{path: "/a/../f", err: fs.ErrBadName},
		{path: "/d/@@", err: fs.ErrBadName},
		// A bad name anywhere refuses the whole path before any of it is
		// searched: the first component here does not exist.
		{path: "/nonexistent/..", err: fs.ErrBadName},
		{path: "/nonexistent/f", err: fs.ErrNotFound},
		{path: "/d/nonexistent", err: fs.ErrNotFound},
		{path: "/d/f/x", err: fs.ErrNotDir},

		// Mount crossing: the entry names the mounted filegroup's root, and
		// the mount table is keyed by the canonical path however it is
		// spelled.
		{path: "/usr", want: fs.Resolved{ID: root2, Parent: root1, Name: "usr", ParentSites: sites, Type: storage.TypeDirectory}},
		{path: "//usr/.", want: fs.Resolved{ID: root2, Parent: root1, Name: "usr", ParentSites: sites, Type: storage.TypeDirectory}},
		{path: "/usr/g", want: fs.Resolved{ID: id("/usr/g"), Parent: root2, Name: "g", ParentSites: sites, Type: storage.TypeRegular}},
		{path: "/./usr@@//g", want: fs.Resolved{ID: id("/usr/g"), Parent: root2, Name: "g", ParentSites: sites, Type: storage.TypeRegular}},

		// Hidden directory: the context entry is substituted unless the
		// component is escaped.
		{path: "/bin/who", want: fs.Resolved{ID: id("/bin/who@@/vax"), Parent: id("/bin/who@@"), Name: "vax", ParentSites: sites, Type: storage.TypeRegular}},
		{path: "/bin//who/", want: fs.Resolved{ID: id("/bin/who@@/vax"), Parent: id("/bin/who@@"), Name: "vax", ParentSites: sites, Type: storage.TypeRegular}},
		{path: "/bin/who@@", want: fs.Resolved{ID: id("/bin/who@@"), Parent: id("/bin"), Name: "who", ParentSites: sites, Type: storage.TypeHiddenDir}},
		{path: "/bin/who@@/vax", want: fs.Resolved{ID: id("/bin/who@@/vax"), Parent: id("/bin/who@@"), Name: "vax", ParentSites: sites, Type: storage.TypeRegular}},
		{path: "/bin/who", cred: &fs.Cred{User: "u", HiddenCtx: []string{"pdp11"}}, err: fs.ErrNotFound},
		{path: "/bin/who", cred: &fs.Cred{User: "u"}, err: fs.ErrNotFound},
		{path: "/bin/who/vax", err: fs.ErrNotDir}, // the substituted entry is a file
	} {
		c := tc.cred
		if c == nil {
			c = vax
		}
		r, err := k.Resolve(c, tc.path)
		switch {
		case tc.err != nil:
			if !errors.Is(err, tc.err) {
				t.Errorf("Resolve(%q) = %+v, %v; want %v", tc.path, r, err, tc.err)
			}
		case err != nil:
			t.Errorf("Resolve(%q): %v", tc.path, err)
		case !reflect.DeepEqual(*r, tc.want):
			t.Errorf("Resolve(%q) = %+v, want %+v", tc.path, *r, tc.want)
		}
	}
	if f.Parent == root1 || f.ID == f.Parent || id("/bin/who@@") == id("/bin") {
		t.Fatalf("the tree's low-level names collide: %+v", f)
	}

	// ResolveParent names the directory of the last component in place.
	for _, tc := range []struct {
		path   string
		parent storage.FileID
		name   string
		err    error
	}{
		{path: "/new", parent: root1, name: "new"},
		{path: "//new/", parent: root1, name: "new"},
		{path: "/d/new", parent: f.Parent, name: "new"},
		{path: "/d//./new/.", parent: f.Parent, name: "new"},
		{path: "/d/new@@", parent: f.Parent, name: "new"},
		{path: "/usr/new", parent: root2, name: "new"},
		{path: "/bin/who@@/pdp11", parent: id("/bin/who@@"), name: "pdp11"},
		{path: "/", err: fs.ErrBadName},
		{path: "/./", err: fs.ErrBadName},
		{path: "/nonexistent/..", err: fs.ErrBadName},
		{path: "/nonexistent/new", err: fs.ErrNotFound},
		{path: "/d/f/new", err: fs.ErrNotDir},
	} {
		parent, name, psites, err := k.ResolveParent(vax, tc.path)
		switch {
		case tc.err != nil:
			if !errors.Is(err, tc.err) {
				t.Errorf("ResolveParent(%q) = %v %q, %v; want %v", tc.path, parent, name, err, tc.err)
			}
		case err != nil:
			t.Errorf("ResolveParent(%q): %v", tc.path, err)
		case parent != tc.parent || name != tc.name || !reflect.DeepEqual(psites, sites):
			t.Errorf("ResolveParent(%q) = %v %q %v, want %v %q %v", tc.path, parent, name, psites, tc.parent, tc.name, sites)
		}
	}
}

// TestResolveAllocations pins what a pathname search costs now that it
// opens nothing: with the directories in the cache, Resolve of a local
// two-component path allocates the Resolved it returns, Stat the copy of
// the inode besides, and neither makes a handle. A search that finds a
// directory changed since it was cached reads it through a registered
// handle, once. One P and no collector, as in TestOpenAllocations.
func TestResolveAllocations(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	if err := k.Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/d/f0007", bytes.Repeat([]byte{'x'}, storage.PageSize))
	settle(t, c)
	cr := cred()
	resolve := func() {
		if _, err := k.Resolve(cr, "/d/f0007"); err != nil {
			t.Fatal(err)
		}
	}
	stat := func() {
		if ino, err := k.Stat(cr, "/d/f0007"); err != nil || ino.Size != storage.PageSize {
			t.Fatalf("Stat = %+v, %v", ino, err)
		}
	}
	resolve()
	open0, registered0 := k.OpenHandles()
	if !invariant.Enabled && !raceEnabled { // see TestOpenAllocations
		release := holdCollector()
		for _, pin := range []struct {
			what string
			run  func()
			max  float64
		}{
			{"Resolve of a cached local two-component path", resolve, 1},
			{"Stat of it", stat, 2},
		} {
			if got := testing.AllocsPerRun(200, pin.run); got > pin.max {
				t.Errorf("%s makes %v allocations, want at most %v", pin.what, got, pin.max)
			}
		}
		release()
	}
	resolve()
	stat()
	if open, registered := k.OpenHandles(); open != open0 || registered != registered0 {
		t.Errorf("searching cached directories left %d handles open (%d before) and registered %d",
			open, open0, registered-registered0)
	}

	// The other site adds a name to /d: this site's copy gets a version
	// its cache does not hold, and the next search reads the directory.
	writeFile(t, c.K(2), "/d/other", nil)
	settle(t, c)
	open0, registered0 = k.OpenHandles()
	resolve()
	if open, registered := k.OpenHandles(); open != open0 || registered != registered0+1 {
		t.Errorf("a search that missed the directory cache left %d handles open (%d before) and registered %d, want 1",
			open, open0, registered-registered0)
	}
	resolve()
	if _, registered := k.OpenHandles(); registered != registered0+1 {
		t.Errorf("the search after it registered %d more handles, want none", registered-registered0-1)
	}
}

// TestLookInternalSendsWhatOpenSends: the look is the open it replaced,
// less the handle. Where the internal open goes to the CSS — the site
// stores no copy, or stores one with a propagation pending — the look
// moves every transport counter exactly as OpenID + Close do.
func TestLookInternalSendsWhatOpenSends(t *testing.T) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
		Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	data := bytes.Repeat([]byte{'x'}, 2*storage.PageSize)
	writeFile(t, c.K(1), "/f", data)
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	// Site 2 now stores a copy one version behind, its pull queued.
	rewriteFile(t, c.K(1), "/f", data)
	if n := c.K(2).PendingPropagations(); n == 0 {
		t.Fatal("site 2 has no propagation pending")
	}

	for _, tc := range []struct {
		what string
		site fs.SiteID
	}{
		{"a site that stores no copy", 3},
		{"a copy with a propagation pending", 2},
	} {
		k := c.K(tc.site)
		delta := func(op func()) netsim.Snapshot {
			before := c.Net.Stats()
			op()
			return c.Net.Stats().Sub(before)
		}
		look := func() {
			ino, ss, err := k.LookInternal(r.ID)
			if err != nil || ss != 1 || ino.Size != int64(len(data)) {
				t.Fatalf("%s: LookInternal = %+v at site %d, %v", tc.what, ino, ss, err)
			}
		}
		open := func() {
			f, err := k.OpenID(r.ID, fs.ModeInternal)
			if err != nil || f.SS() != 1 || f.Size() != int64(len(data)) {
				t.Fatalf("%s: OpenID: %v", tc.what, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		open() // the CSS builds its lock-table entry on first use
		opened, looked := delta(open), delta(look)
		if !reflect.DeepEqual(opened, looked) {
			t.Errorf("%s: the look moved the counters\n%+v\nthe open and close\n%+v", tc.what, looked, opened)
		}
		if looked.Msgs != 2 || looked.ByMethod["fs.open"] != 2 {
			t.Errorf("%s: the look sent %d messages (%v), want the fs.open request and its reply", tc.what, looked.Msgs, looked.ByMethod)
		}
	}
	if n := c.K(2).PendingPropagations(); n == 0 {
		t.Fatal("site 2's propagation landed during the test: the second row did not go to the CSS")
	}
}

// TestSearchLooksEachFileOnce counts the internal opens (§2.3.4) that a
// pathname operation sends from a site that stores no copy, with the
// directories in its cache: every file on the path is looked at once, one
// fs.open exchange (two messages) with the CSS, and the look that found a
// component's type serves what comes next — the next step's read of its
// content, Stat's inode, ReadDir's listing, Create's read of the parent
// and its site list. Create's modify open of the parent for the new entry
// is the one synchronized open among them.
func TestSearchLooksEachFileOnce(t *testing.T) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
		Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, c.K(1), "/d/f", []byte("f"))
	settle(t, c)
	k := c.K(3)
	if _, err := k.ReadDir(cred(), "/d"); err != nil { // fills the directory cache
		t.Fatal(err)
	}
	var created []*fs.File
	create := func(path string) func() error {
		return func() error {
			f, err := k.Create(cred(), path, storage.TypeRegular, 0644)
			if err == nil {
				created = append(created, f)
			}
			return err
		}
	}
	for _, tc := range []struct {
		what  string
		op    func() error
		opens int64
	}{
		// /, /d and f.
		{`Stat("/d/f")`, func() error { _, err := k.Stat(cred(), "/d/f"); return err }, 6},
		// / and /d.
		{`ReadDir("/d")`, func() error { _, err := k.ReadDir(cred(), "/d"); return err }, 4},
		{`Resolve("/d/f")`, func() error { _, err := k.Resolve(cred(), "/d/f"); return err }, 6},
		// / and /d, then the modify open of /d.
		{`Create("/d/g")`, create("/d/g"), 6},
		// /, looked at by ResolveParent, then the modify open of /.
		{`Create("/g")`, create("/g"), 4},
	} {
		before := c.Net.Stats()
		if err := tc.op(); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if d := c.Net.Stats().Sub(before); d.ByMethod["fs.open"] != tc.opens {
			t.Errorf("%s sent %d fs.open messages (%v), want %d", tc.what, d.ByMethod["fs.open"], d.ByMethod, tc.opens)
		}
	}
	for _, f := range created {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenLooksLastComponentOnce counts the fs.open messages of an open
// by pathname, with the directories in the cache. From a site that stores
// no copy, the synchronized open is the last component's look: / and /d
// are looked at, and the CSS answers the open of f with the inode the look
// used to fetch first (8 messages then, 6 now). A hidden directory comes
// back from that open as a look, with no lock taken, and its context entry
// is opened (10 then, 8 now). From a site with a current copy every look
// is free, and an open sends its own exchange and nothing else, as before.
func TestOpenLooksLastComponentOnce(t *testing.T) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
		Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	k1 := c.K(1)
	for _, dir := range []string{"/d", "/bin"} {
		if err := k1.Mkdir(cred(), dir, 0755); err != nil {
			t.Fatal(err)
		}
	}
	if err := k1.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k1, "/d/f", []byte("f"))
	writeFile(t, k1, "/bin/who@@/vax", []byte("VAX load module"))
	settle(t, c)
	vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	id := func(path string) storage.FileID {
		t.Helper()
		r, err := k1.Resolve(vax, path)
		if err != nil {
			t.Fatal(err)
		}
		return r.ID
	}
	for _, tc := range []struct {
		site  fs.SiteID
		path  string
		mode  fs.OpenMode
		want  storage.FileID
		opens int64
	}{
		// /, /d, then the open of f.
		{3, "/d/f", fs.ModeRead, id("/d/f"), 6},
		{3, "/d/f", fs.ModeModify, id("/d/f"), 6},
		// /, /bin, then the open of the escaped hidden directory itself.
		{3, "/bin/who@@", fs.ModeRead, id("/bin/who@@"), 6},
		// /, /bin, the open that comes back as the hidden directory's look,
		// then the open of vax.
		{3, "/bin/who", fs.ModeRead, id("/bin/who"), 8},
		{3, "/bin/who", fs.ModeModify, id("/bin/who"), 8},
		// Every look free: the open alone.
		{2, "/d/f", fs.ModeRead, id("/d/f"), 2},
		{2, "/d/f", fs.ModeModify, id("/d/f"), 2},
		{2, "/bin/who@@", fs.ModeRead, id("/bin/who@@"), 2},
		{2, "/bin/who", fs.ModeRead, id("/bin/who"), 2},
	} {
		k := c.K(tc.site)
		what := fmt.Sprintf("site %d: Open(%q, %v)", tc.site, tc.path, tc.mode)
		if _, err := k.Resolve(vax, tc.path); err != nil { // fills the directory cache
			t.Fatal(err)
		}
		before := c.Net.Stats()
		f, err := k.Open(vax, tc.path, tc.mode)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		d := c.Net.Stats().Sub(before)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f.ID() != tc.want {
			t.Errorf("%s opened %v, want %v", what, f.ID(), tc.want)
		}
		if d.ByMethod["fs.open"] != tc.opens {
			t.Errorf("%s sent %d fs.open messages (%v), want %d", what, d.ByMethod["fs.open"], d.ByMethod, tc.opens)
		}
	}
}

// TestHiddenDirectoryLookUnderDelegation: under leases, the open that is a
// hidden directory's look is served by a read delegation held on the
// directory, with no message and no handle, as the open of its context
// entry is by the entry's. Site 2 stores the whole tree, but a pull of the
// hidden directory is pending there, so its look is not free: only the
// delegation saves the exchange with the CSS.
func TestHiddenDirectoryLookUnderDelegation(t *testing.T) {
	c := newCluster(t, 2)
	k1, k2 := c.K(1), c.K(2)
	if err := k1.Mkdir(cred(), "/bin", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k1.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k1, "/bin/who@@/vax", []byte("VAX load module"))
	settle(t, c)
	writeFile(t, k1, "/bin/who@@/pdp11", []byte("PDP-11 load module"))
	if k2.PendingPropagations() == 0 {
		t.Fatal("site 2 has no pull pending")
	}
	c.SetFeatures(fs.Features{Leases: true})
	vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	for _, path := range []string{"/bin/who@@", "/bin/who@@/vax"} {
		f, err := k2.Open(vax, path, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k2.ReadDir(vax, "/bin/who@@"); err != nil { // caches the new version
		t.Fatal(err)
	}
	if got := k2.Leases(); len(got) != 2 {
		t.Fatalf("site 2 holds leases %v, want read delegations on /bin/who@@ and its vax", got)
	}
	want, err := k1.Resolve(vax, "/bin/who")
	if err != nil {
		t.Fatal(err)
	}
	_, registered0 := k2.OpenHandles()
	before := c.Net.Stats()
	f, err := k2.Open(vax, "/bin/who", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if d := c.Net.Stats().Sub(before); d.Msgs != 0 || f.ID() != want.ID {
		t.Errorf("Open(/bin/who) opened %v with %d messages (%v), want %v with none", f.ID(), d.Msgs, d.ByMethod, want.ID)
	}
	if _, registered := k2.OpenHandles(); registered != registered0+1 {
		t.Errorf("Open(/bin/who) registered %d handles, want the vax entry's alone", registered-registered0)
	}
	if k2.PendingPropagations() == 0 {
		t.Fatal("site 2's pull landed during the test: the hidden directory's look was free")
	}
}

// BenchmarkResolve is one pathname search of a two-component path whose
// directories are in the cache: at a site that stores them (no message,
// one allocation) and at one that stores no copy of the filegroup, where
// each of the three looks is an fs.open exchange with the CSS (6 msgs/op).
func BenchmarkResolve(b *testing.B) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
		Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}}})
	if err != nil {
		b.Fatal(err)
	}
	c := newClusterCfg(b, cfg, 1, 2, 3)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		b.Fatal(err)
	}
	writeFile(b, c.K(1), "/d/f0007", []byte("x"))
	c.Settle()
	cr := cred()
	for _, bc := range []struct {
		name string
		site fs.SiteID
	}{{"local", 2}, {"no-copy", 3}} {
		b.Run(bc.name, func(b *testing.B) {
			k := c.K(bc.site)
			if _, err := k.Resolve(cr, "/d/f0007"); err != nil { // fills the directory cache
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			before := c.Net.Stats()
			for i := 0; i < b.N; i++ {
				if _, err := k.Resolve(cr, "/d/f0007"); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(c.Net.Stats().Sub(before).Msgs)/float64(b.N), "msgs/op")
		})
	}
}
