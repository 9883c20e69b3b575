package fs_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
)

func TestSplitPathNormalization(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	writeFile(t, k, "/f", []byte("x"))
	// Redundant slashes and "." components are ignored.
	for _, p := range []string{"/f", "//f", "/./f", "/f/", "///f//"} {
		if _, err := k.Resolve(cred(), p); err != nil {
			t.Errorf("Resolve(%q): %v", p, err)
		}
	}
	// ".." is rejected (no parent traversal in the 1983 system either).
	if _, err := k.Resolve(cred(), "/a/../f"); !errors.Is(err, fs.ErrBadName) {
		t.Errorf("dotdot: %v", err)
	}
	// Root itself resolves.
	r, err := k.Resolve(cred(), "/")
	if err != nil || r.Type != storage.TypeDirectory {
		t.Errorf("root: %+v %v", r, err)
	}
}

func TestLongPathComponentsAndNames(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	long := strings.Repeat("x", 200)
	writeFile(t, k, "/"+long, []byte("long"))
	if got := readFile(t, k, "/"+long); string(got) != "long" {
		t.Fatalf("long name read %q", got)
	}
	// Deep nesting.
	path := ""
	for i := 0; i < 12; i++ {
		path += "/d"
		if err := k.Mkdir(cred(), path, 0755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, k, path+"/leaf", []byte("deep"))
	if got := readFile(t, k, path+"/leaf"); string(got) != "deep" {
		t.Fatalf("deep read %q", got)
	}
}

func TestCSSIndependencePerFilegroup(t *testing.T) {
	// Each filegroup has its own CSS: the lowest pack site in the
	// partition for that filegroup.
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{
		{FG: 1, MountPath: "/", Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}},
		{FG: 2, MountPath: "/b", Packs: []fs.PackDesc{{Site: 3, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg)
	settle(t, c) // let the formatted mount-point entries replicate
	k := c.K(2)
	if css, _ := k.CSSOf(1); css != 1 {
		t.Fatalf("CSS(fg1) = %d", css)
	}
	if css, _ := k.CSSOf(2); css != 2 {
		t.Fatalf("CSS(fg2) = %d", css)
	}
	// Cut site 1 off: fg1's CSS migrates to 2; fg2 unchanged.
	c.Partition([]fs.SiteID{2, 3}, []fs.SiteID{1})
	if css, _ := k.CSSOf(1); css != 2 {
		t.Fatalf("CSS(fg1) after partition = %d", css)
	}
	if css, _ := k.CSSOf(2); css != 2 {
		t.Fatalf("CSS(fg2) after partition = %d", css)
	}
	// fg2 files stay fully usable in the majority partition.
	writeFile(t, k, "/b/ok", []byte("usable"))
	settle(t, c)
	if got := readFile(t, c.K(3), "/b/ok"); string(got) != "usable" {
		t.Fatalf("read %q", got)
	}
}

func TestResolveParentOfRootRejected(t *testing.T) {
	c := newCluster(t, 1)
	if _, _, _, err := c.K(1).ResolveParent(cred(), "/"); !errors.Is(err, fs.ErrBadName) {
		t.Fatalf("err = %v", err)
	}
	if err := c.K(1).Unlink(cred(), "/"); !errors.Is(err, fs.ErrBadName) {
		t.Fatalf("unlink root: %v", err)
	}
}

func TestInvalidCreateNames(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	for _, p := range []string{"relative", "/..", "/."} {
		if _, err := k.Create(cred(), p, storage.TypeRegular, 0644); !errors.Is(err, fs.ErrBadName) {
			t.Errorf("Create(%q) = %v", p, err)
		}
	}
}
