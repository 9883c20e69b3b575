package fs_test

import (
	"errors"
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// TestReusedInodeNumberServesNoDeadContent: a filegroup of two inode
// numbers at site 1, the root's and one more; site 3 stores nothing. Site
// 3 reads /x, which leaves /x's page in its using-site page cache (and,
// under the default, a read delegation, which the unlink's open
// revokes). /x is unlinked and its tombstone collected, and /y reuses
// its number. Site 3's read of /y must find /y's bytes: its first version
// starts above the last version of /x (storage.Container.Floor), so the
// cached page of /x, keyed by (FileID, version vector), is stale for it,
// and so is a delegation stamped with a version of /x: the stamp of the
// one site 3 is granted on /y dominates it. While a new file's versions
// started again at its birth site's first, the cached page's version
// dominated /y's and site 3 read "Old".
func TestReusedInodeNumberServesNoDeadContent(t *testing.T) {
	for _, ft := range []fs.Features{{}, {NoDelegations: true}} {
		cfg, err := fs.NewConfig([]fs.FilegroupDesc{
			{FG: 1, MountPath: "/", Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 2}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Features = ft
		c := newClusterCfg(t, cfg, 1, 3)
		k1, k3 := c.K(1), c.K(3)
		writeFile(t, k1, "/x", []byte("Old"))
		for _, data := range []string{"Old!", "Old"} { // a few versions of /x
			f, err := k1.Open(cred(), "/x", fs.ModeModify)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.WriteAll([]byte(data)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if got := readFile(t, k3, "/x"); string(got) != "Old" {
			t.Fatalf("%+v: site 3 read /x as %q", ft, got)
		}
		x, err := k3.Resolve(cred(), "/x")
		if err != nil {
			t.Fatal(err)
		}
		xStamp, delegated := k3.Delegations()[x.ID]
		if delegated == ft.NoDelegations {
			t.Fatalf("%+v: site 3 holds a delegation on /x: %v", ft, delegated)
		}
		if err := k1.Unlink(cred(), "/x"); err != nil {
			t.Fatal(err)
		}
		settle(t, c)
		if n := k1.CollectGarbage(); n != 1 {
			t.Fatalf("%+v: CollectGarbage dropped %d tombstones, want /x's", ft, n)
		}
		writeFile(t, k1, "/y", []byte("New"))
		if y, err := k3.Resolve(cred(), "/y"); err != nil || y.ID != x.ID {
			t.Fatalf("%+v: /y is %v, %v; the set-up wants /x's number, %v", ft, y, err, x.ID)
		}
		if got := readFile(t, k3, "/y"); string(got) != "New" {
			t.Errorf("%+v: site 3 read /y, which reuses /x's number, as %q, want \"New\"", ft, got)
		}
		if yStamp, held := k3.Delegations()[x.ID]; delegated && (!held || yStamp.Compare(xStamp) != vclock.Dominates) {
			t.Errorf("%+v: site 3's delegation on /y is stamped %v (held %v), not above /x's %v", ft, yStamp, held, xStamp)
		}
	}
}

// TestRetiredReplicaKeepsItsNumber: /a is born at site 1, whose pack owns
// the numbers 1–3, and moves to sites 2 and 3; site 1 retires its copy.
// The files created after it must not take /a's number, which /a still
// names at sites 2 and 3. While the owner pack's retirement freed the
// number, /c took it, and site 1 read /a as /c's bytes and sites 2 and 3
// read /c as /a's.
func TestRetiredReplicaKeepsItsNumber(t *testing.T) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: []fs.PackDesc{
		{Site: 1, Lo: 1, Hi: 3}, {Site: 2, Lo: 1001, Hi: 1100}, {Site: 3, Lo: 2001, Hi: 2100}}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	k1 := c.K(1)
	writeFile(t, k1, "/a", []byte("a"))
	if err := k1.SetReplication(cred(), "/a", []fs.SiteID{2, 3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	a, err := k1.Resolve(cred(), "/a")
	if err != nil {
		t.Fatal(err)
	}
	if k1.Store().Container(1).HasInode(a.ID.Inode) {
		t.Fatal("set-up: site 1 did not retire its copy of /a")
	}
	writeFile(t, k1, "/b", []byte("b"))
	f, err := k1.Create(cred(), "/c", storage.TypeRegular, 0644)
	if err == nil {
		t.Fatalf("/c was created as %v in a range whose free number is /a's", f.ID())
	}
	if !errors.Is(err, storage.ErrInodeSpace) {
		t.Fatalf("create /c: %v, want storage.ErrInodeSpace", err)
	}
	for _, s := range c.Sites() {
		if got := readFile(t, c.K(s), "/a"); string(got) != "a" {
			t.Errorf("site %d read /a as %q", s, got)
		}
	}
}
