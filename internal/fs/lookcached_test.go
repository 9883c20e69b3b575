package fs_test

// A site that stores a directory and awaits a pull of it looks at the
// directory in its cache, with no message, when the cache holds the
// version the pull is for or a newer one (Kernel.lookCached): as after
// its own update, which renameDir's using site made last. In every other
// case it looks at the CSS.

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

// TestCachedLookSeesEveryNotifiedCommit: site 3 creates a name in /d
// after site 2's last update, and the CSS's commit of /d notifies site
// 2, whose cache holds the version before. Site 2's search must look at
// /d at the CSS and find the new name.
func TestCachedLookSeesEveryNotifiedCommit(t *testing.T) {
	c, _ := renameDir(t, 8, 2, false)
	writeFile(t, c.K(3), "/d/new3", nil)
	before := c.Net.Stats()
	if _, err := c.K(2).Stat(cred(), "/d/new3"); err != nil {
		t.Fatalf("site 2 does not find site 3's new name: %v", err)
	}
	if d := c.Net.Stats().Sub(before); d.ByMethod["fs.open"] == 0 {
		t.Errorf("site 2's search behind site 3's update sent %v, want a look at the CSS", d.ByMethod)
	}
}

// TestCachedLookIsTheCommittedInode: the look the cache serves is the
// inode the CSS committed for the cached version, every field of it, not
// site 2's own copy awaiting its pull, and Stat("/d") sends nothing.
func TestCachedLookIsTheCommittedInode(t *testing.T) {
	c, _ := renameDir(t, 8, 2, false)
	k := c.K(2)
	before := c.Net.Stats()
	got, err := k.Stat(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Net.Stats().Sub(before); d.Msgs != 0 {
		t.Errorf("Stat(/d) at site 2 sent %v, want nothing", d.ByMethod)
	}
	want, err := c.K(1).Stat(cred(), "/d") // the CSS's committed copy, no pull pending
	if err != nil {
		t.Fatal(err)
	}
	if !got.VV.Equal(want.VV) || got.Size != want.Size || !reflect.DeepEqual(got.Pages, want.Pages) ||
		got.Nlink != want.Nlink || !reflect.DeepEqual(got.Sites, want.Sites) || got.Mode != want.Mode ||
		!reflect.DeepEqual(got, want) {
		t.Errorf("site 2 stats /d as %+v, the CSS committed %+v", got, want)
	}
	r, err := k.Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	local, err := k.Store().Container(r.ID.FG).GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if local.VV.Equal(want.VV) {
		t.Fatalf("set-up: site 2's own copy of /d is already at %v", local.VV)
	}
}

// TestCachedLookFallsBackToTheCSS: site 2 looks at /d at the CSS though
// its copy awaits a pull and its cache holds the version of that pull or
// a newer one, when its copy is conflicted, when the pull is a
// retirement, or when the cached version no longer lists site 2 among
// /d's storage sites. The last two are not told of /d's next commits:
// behind site 3's create, each must find the new name.
func TestCachedLookFallsBackToTheCSS(t *testing.T) {
	t.Run("conflict", func(t *testing.T) {
		c, _ := renameDir(t, 8, 2, false)
		k := c.K(2)
		r, err := k.Resolve(cred(), "/d")
		if err != nil {
			t.Fatal(err)
		}
		k.MarkConflict(r.ID, []fs.SiteID{2})
		before := c.Net.Stats()
		if _, err := k.ReadDir(cred(), "/d"); err != nil {
			t.Fatal(err)
		}
		if d := c.Net.Stats().Sub(before); d.ByMethod["fs.open"] == 0 {
			t.Errorf("site 2's listing of /d, its copy conflicted, sent %v, want a look at the CSS", d.ByMethod)
		}
	})
	for _, tc := range []struct {
		name string
		// prep leaves site 2 with a pending pull of /d and its cache
		// behind it, and /d's storage sites 1 and 3.
		prep func(t *testing.T, c *cluster.Cluster, d storage.FileID)
	}{
		{"retirement", func(t *testing.T, c *cluster.Cluster, d storage.FileID) {
			settle(t, c)
			if err := c.K(1).SetReplication(cred(), "/d", []fs.SiteID{1, 3}); err != nil {
				t.Fatal(err)
			}
			// The version that drops site 2 reaches it: it retires its copy
			// once site 3 has pulled.
			if err := fs.NotifyCommit(c.K(1), 2, d); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(c.K(2).DebugPendingPropagations(), "drop=true") {
				t.Fatalf("set-up: site 2 holds no retirement: %s", c.K(2).DebugPendingPropagations())
			}
		}},
		{"unlisted", func(t *testing.T, c *cluster.Cluster, _ storage.FileID) {
			writeFile(t, c.K(3), "/d/x", nil)
			if err := c.K(1).SetReplication(cred(), "/d", []fs.SiteID{1, 3}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := renameDir(t, 8, 2, false)
			k := c.K(2)
			r, err := k.Resolve(cred(), "/d")
			if err != nil {
				t.Fatal(err)
			}
			tc.prep(t, c, r.ID)
			// The look at the CSS caches the version that drops site 2.
			if _, err := k.ReadDir(cred(), "/d"); err != nil {
				t.Fatal(err)
			}
			if _, vv := k.CachedDir(r.ID); k.PendingPropagations() == 0 || vv == nil {
				t.Fatalf("set-up: site 2 awaits no pull of /d or caches none: %s", k.DebugPendingPropagations())
			}
			writeFile(t, c.K(3), "/d/new3", nil)
			before := c.Net.Stats()
			if _, err := k.Stat(cred(), "/d/new3"); err != nil {
				t.Fatalf("site 2 does not find site 3's new name: %v", err)
			}
			if d := c.Net.Stats().Sub(before); d.ByMethod["fs.open"] == 0 {
				t.Errorf("site 2's search sent %v, want a look at the CSS", d.ByMethod)
			}
		})
	}
}
