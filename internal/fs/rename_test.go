package fs_test

// Rename within one directory is one directory update (§2.3.6: a
// shadow-page commit makes one file atomic, and the directory is that
// file): one fs.dirop to the CSS, which makes one commit and one
// propagation fan-out, after one search of the shared parent.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

// renameDir builds a 3-site cluster whose replicated /d holds files
// f0000 … f<n-1>, settled, and readies a rename at site us the way a
// build does: us writes /d/tmp and unlinks /d/f0001, the target. Every
// update of /d commits at the CSS, site 1, so any other us then holds a
// pending propagation of /d, its cache current: it made the last update
// itself. stale first has another site update /d, site 3 for us 2 and
// the CSS for us 3. sites, when given, stores /d at those sites alone,
// which the CSS polls in that order. It returns the cluster and tmp's
// inode.
func renameDir(t testing.TB, n int, us fs.SiteID, stale bool, sites ...fs.SiteID) (*cluster.Cluster, storage.InodeNum) {
	t.Helper()
	return featureRenameDir(t, fs.Features{}, n, us, stale, sites...)
}

// featureRenameDir is renameDir on a cluster booted with ft.
func featureRenameDir(t testing.TB, ft fs.Features, n int, us fs.SiteID, stale bool, sites ...fs.SiteID) (*cluster.Cluster, storage.InodeNum) {
	t.Helper()
	c := featureCluster(t, 3, ft)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if sites != nil {
		if err := c.K(1).SetReplication(cred(), "/d", sites); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		writeFile(t, c.K(1), fmt.Sprintf("/d/f%04d", i), []byte("x"))
	}
	c.Settle()
	k := c.K(us)
	if stale {
		writeFile(t, c.K(us%3+1), "/d/other", []byte("z"))
	}
	writeFile(t, k, "/d/tmp", []byte("y"))
	if err := k.Unlink(cred(), "/d/f0001"); err != nil {
		t.Fatal(err)
	}
	ino, err := k.Stat(cred(), "/d/tmp")
	if err != nil {
		t.Fatal(err)
	}
	return c, ino.Num
}

// lagCache has the CSS commit /d's mode again after renameDir, an
// inode-only commit, and list /d, so that its own cache holds that
// version: a using site's cache then holds the version before the one
// its pending pull is for, so its first look at /d goes to the CSS (the
// look a cut test cuts with the operation's other exchanges), and the
// answer, the same pages, it caches with no read.
func lagCache(t testing.TB, c *cluster.Cluster) {
	t.Helper()
	if err := c.K(1).Chmod(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.K(1).ReadDir(cred(), "/d"); err != nil {
		t.Fatal(err)
	}
}

// TestAttrCommitKeepsCSSDirectoryCache: a chmod of /d is an inode-only
// commit that attrOp makes through a plain modify open, which leaves the
// CSS's cached snapshot at the version before. The CSS stores no copy of
// /d (sites 3 and 2 do), and its next update of /d, a rename, makes the
// snapshot of the new version from the cached one: every page is one the
// cached copy at site 3 holds, so it reads none, where it read the whole
// directory from site 3 before.
func TestAttrCommitKeepsCSSDirectoryCache(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"chmod", func(t *testing.T) {
			c, ino := featureRenameDir(t, rg.features, 8, 2, true, 3, 2)
			if err := c.K(1).Chmod(cred(), "/d", 0700); err != nil {
				t.Fatal(err)
			}
			before := c.Net.Stats()
			if err := c.K(2).Rename(cred(), "/d/tmp", "/d/f0001"); err != nil {
				t.Fatal(err)
			}
			if d := c.Net.Stats().Sub(before); d.ByMethod["fs.read"] != 0 {
				t.Errorf("the rename after the chmod sent %v, want no fs.read", d.ByMethod)
			}
			settle(t, c)
			for _, s := range c.Sites() {
				if got := namesOf(t, c.K(s), "/d", ino); !slices.Equal(got, []string{"f0001"}) {
					t.Errorf("site %d: the renamed file is named %v in /d", s, got)
				}
				if st, err := c.K(s).Stat(cred(), "/d"); err != nil || st.Mode != 0700 {
					t.Errorf("site %d: Stat(/d) = %+v, %v, want mode 0700", s, st, err)
				}
			}
			if findings := c.Fsck(true); len(findings) != 0 {
				t.Fatalf("fsck: %v", findings)
			}
		})
	}
}

// TestRenameSameDirectoryIsOneUpdate: Rename("/d/tmp", "/d/f0001") in a
// 1,024-entry directory is one directory update, one fs.dirop carrying
// both entry changes (none from the CSS, where it is a procedure call)
// and one fan-out to the other two copies, from every site of
// TestNamespaceOpCosts, which pins all it sends. Made of two, an insert
// and then a removal, it sends two of each.
func TestRenameSameDirectoryIsOneUpdate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		us    fs.SiteID
		stale bool
	}{
		{"current/css", 1, false},
		{"current", 2, false},
		{"stale", 2, true},
		{"stale/ss-is-css", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ino := renameDir(t, 1024, tc.us, tc.stale)
			before := c.Net.Stats()
			if err := c.K(tc.us).Rename(cred(), "/d/tmp", "/d/f0001"); err != nil {
				t.Fatal(err)
			}
			d := c.Net.Stats().Sub(before)
			dirops := int64(2)
			if tc.us == 1 {
				dirops = 0
			}
			if d.ByMethod["fs.dirop"] != dirops || d.ByMethod["fs.propnotify"] != 2 {
				t.Errorf("the rename sent %v, want %d fs.dirop and 2 fs.propnotify messages", d.ByMethod, dirops)
			}
			settle(t, c)
			for _, s := range c.Sites() {
				if got := namesOf(t, c.K(s), "/d", ino); !slices.Equal(got, []string{"f0001"}) {
					t.Errorf("site %d: the renamed file is named %v in /d", s, got)
				}
			}
			if findings := c.Fsck(true); len(findings) != 0 {
				t.Fatalf("fsck: %v", findings)
			}
		})
	}
}

// namesOf lists the live entries of dir that name inode ino.
func namesOf(t *testing.T, k *fs.Kernel, dir string, ino storage.InodeNum) []string {
	t.Helper()
	ents, err := k.ReadDir(cred(), dir)
	if err != nil {
		t.Fatalf("site %d lists %s: %v", k.Site(), dir, err)
	}
	var names []string
	for _, e := range ents {
		if e.Inode == ino {
			names = append(names, e.Name)
		}
	}
	return names
}

// TestRenameCutAtEveryExchange cuts a same-directory Rename from a site
// with a pending propagation of the directory, its cache one version
// behind (lagCache), at each exchange it makes, nested ones included, one
// exchange per case. /d is stored at sites 3
// and 2 and not at the CSS, site 1, so the CSS's update of it runs the
// whole open for modification and commit at the current storage site,
// site 3: the CSS polls it for the look and for the modify open,
// writes the changed page and commits there, site 3 notifies site 2
// and the CSS, and the CSS closes. (TestDirOpCutAtEveryExchange
// cuts the same rename where the CSS stores /d, and every nested
// exchange is a procedure call.) Each case is cut two ways: all 8
// transmissions of its request are dropped, or the using site crashes
// as it is sent (the request is delivered, the reply finds no caller).
// After the network heals (or the site restarts) and propagation
// settles, fsck must be clean and every site must name the file by
// exactly one live entry, old or new, with a link count of 1; a rename
// that reported success must have left the new name, and one whose
// request was dropped and that reported an error the old. A rename made
// of two commits, an insert and then a removal, leaves both names when
// it is cut between them. The last cases drop a Create's fs.create, and
// the fs.commit of the CSS's update for it, the same way: the entry
// must land nowhere.
func TestRenameCutAtEveryExchange(t *testing.T) {
	const us = 2
	offCSS := []fs.SiteID{3, 2}
	c, _ := renameDir(t, 8, us, true, offCSS...)
	lagCache(t, c)
	script := fs.Record(c.Net, func() {
		if err := c.K(us).Rename(cred(), "/d/tmp", "/d/f0001"); err != nil {
			t.Fatal(err)
		}
	})

	for i, ex := range script.Exchanges() {
		for _, crash := range []bool{false, true} {
			how, cut := "drop", fs.Cut{At: ex, Drop: 8}
			if crash {
				how, cut = "crash", fs.Cut{At: ex, Crash: us}
			}
			t.Run(fmt.Sprintf("%02d:%v/%s", i, ex, how), func(t *testing.T) {
				c, ino := renameDir(t, 8, us, true, offCSS...)
				lagCache(t, c)
				before := c.Net.Stats()
				var err error
				cut.Run(c.Net, func() { err = c.K(us).Rename(cred(), "/d/tmp", "/d/f0001") })
				if crash == c.Net.Up(us) {
					t.Fatalf("using site up = %v after the cut, want %v: the cut missed the exchange", c.Net.Up(us), !crash)
				}
				if d := c.Net.Stats().Sub(before); !crash && d.MsgsDropped != 8 {
					t.Fatalf("%d requests dropped, want 8: the fault missed the exchange", d.MsgsDropped)
				}
				t.Logf("rename: %v", err)

				if crash {
					c.Crash(us) // the survivors learn of it
					c.Net.Restart(us)
				}
				healAfterCut(t, c)
				for _, s := range c.Sites() {
					names := namesOf(t, c.K(s), "/d", ino)
					if len(names) != 1 {
						t.Fatalf("site %d: the file is named %v in /d after the cut, want one name", s, names)
					}
					if err == nil && names[0] != "f0001" {
						t.Fatalf("site %d: the rename succeeded, yet the file is named %v", s, names)
					}
					if err != nil && !crash && names[0] != "tmp" {
						t.Fatalf("site %d: the rename failed (%v), yet the file is named %v", s, err, names)
					}
					st, err := c.K(s).Stat(cred(), "/d/"+names[0])
					if err != nil {
						t.Fatal(err)
					}
					if st.Nlink != 1 {
						t.Fatalf("site %d: /d/%s has %d links, want 1", s, names[0], st.Nlink)
					}
				}
			})
		}
	}

	// Every transmission of the create's fs.create, or of the fs.commit
	// of the CSS's update of /d at site 3, is lost: the create fails, the
	// CSS deletes the inode it had made in the second case, and no site
	// names it.
	for _, ex := range []fs.Exchange{fs.NthRequest(us, 1, "fs.create", 1), fs.NthRequest(1, 3, "fs.commit", 1)} {
		t.Run("create/"+ex.Method+"/drop", func(t *testing.T) {
			c, _ := renameDir(t, 8, us, true, offCSS...)
			before := c.Net.Stats()
			var err error
			fs.Cut{At: ex, Drop: 8}.Run(c.Net, func() { _, err = c.K(us).Create(cred(), "/d/new", storage.TypeRegular, 0644) })
			d := c.Net.Stats().Sub(before)
			if d.MsgsDropped != 8 || err == nil {
				t.Fatalf("create = %v with %d requests dropped, want an error and 8", err, d.MsgsDropped)
			}
			healAfterCut(t, c)
			for _, s := range c.Sites() {
				if _, err := c.K(s).Stat(cred(), "/d/new"); !errors.Is(err, fs.ErrNotFound) {
					t.Fatalf("site %d: the failed create left /d/new: %v", s, err)
				}
			}
		})
	}
}

// healAfterCut heals and merges (§5.5), as a restart does — a restarted
// site lost its queued pulls with the rest of its volatile state, and
// only the merge finds its copy of /d stale — and settles; fsck must
// then be clean.
func healAfterCut(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if _, err := c.Merge(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after the cut: %v", findings)
	}
}

// TestRenameGuards pins names and errors of the renames the one-update
// path must leave as they were: through a hidden directory, by its
// escape, onto itself, onto a live name and onto a tombstone. A rename
// across directories is still two updates, both made by one fs.dirop.
func TestRenameGuards(t *testing.T) {
	c := newCluster(t, 3)
	k := c.K(2)
	vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	if err := k.Mkdir(cred(), "/bin", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/bin/who@@/vax", []byte("VAX load module"))
	writeFile(t, k, "/bin/who@@/pdp11", []byte("PDP-11 load module"))
	if err := k.Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.Mkdir(cred(), "/e", 0755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		writeFile(t, k, "/d/"+name, []byte(name))
	}
	settle(t, c)
	list := func(cr *fs.Cred, dir string) []string {
		t.Helper()
		ents, err := k.ReadDir(cr, dir)
		if err != nil {
			t.Fatalf("ReadDir(%s): %v", dir, err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name)
		}
		return names
	}
	rename := func(cr *fs.Cred, oldpath, newpath string) (map[string]int64, error) {
		t.Helper()
		before := c.Net.Stats()
		err := k.Rename(cr, oldpath, newpath)
		d := c.Net.Stats().Sub(before)
		settle(t, c)
		return d.ByMethod, err
	}
	vaxIno, err := k.Stat(vax, "/bin/who")
	if err != nil {
		t.Fatal(err)
	}

	// The context-expanded name is the vax entry of the hidden directory,
	// and the new name's parent is /bin: the entry moves up into /bin,
	// across two directories, in two updates of one fs.dirop.
	oneUpdate := map[string]int64{"fs.dirop": 2, "fs.propnotify": 2}
	twoUpdates := map[string]int64{"fs.dirop": 2, "fs.propnotify": 4}
	if sent, err := rename(vax, "/bin/who", "/bin/what"); err != nil || !reflect.DeepEqual(sent, twoUpdates) {
		t.Fatalf("Rename(/bin/who, /bin/what) = %v, sent %v; want nil and %v", err, sent, twoUpdates)
	}
	if got := list(cred(), "/bin"); !slices.Equal(got, []string{"what", "who"}) {
		t.Errorf("/bin lists %v", got)
	}
	if got := list(cred(), "/bin/who@@"); !slices.Equal(got, []string{"pdp11"}) {
		t.Errorf("/bin/who@@ lists %v", got)
	}
	if st, err := k.Stat(vax, "/bin/what"); err != nil || st.Num != vaxIno.Num {
		t.Errorf("Stat(/bin/what) = %+v, %v; want the vax load module", st, err)
	}
	if _, err := k.Stat(vax, "/bin/who"); !errors.Is(err, fs.ErrNotFound) {
		t.Errorf("Stat(/bin/who) under the vax context = %v, want ErrNotFound", err)
	}

	// By its escape, an entry of the hidden directory is renamed in place.
	if sent, err := rename(cred(), "/bin/who@@/pdp11", "/bin/who@@/pdp11a"); err != nil || !reflect.DeepEqual(sent, oneUpdate) {
		t.Fatalf("Rename(/bin/who@@/pdp11, /bin/who@@/pdp11a) = %v, sent %v; want nil and %v", err, sent, oneUpdate)
	}
	if got := list(cred(), "/bin/who@@"); !slices.Equal(got, []string{"pdp11a"}) {
		t.Errorf("/bin/who@@ lists %v", got)
	}

	// Onto itself and onto a live name: ErrExists, nothing committed.
	for _, tc := range [][2]string{{"/d/a", "/d/a"}, {"/d/a", "/d/b"}, {"/d/a", "/d//b"}} {
		sent, err := rename(cred(), tc[0], tc[1])
		if !errors.Is(err, fs.ErrExists) || err.Error() != `fs: file exists: "`+tc[1][len(tc[1])-1:]+`"` {
			t.Errorf("Rename(%s, %s) = %v, want ErrExists", tc[0], tc[1], err)
		}
		if sent["fs.propnotify"] != 0 {
			t.Errorf("Rename(%s, %s) committed: sent %v", tc[0], tc[1], sent)
		}
	}
	if got := list(cred(), "/d"); !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("/d lists %v after the refused renames", got)
	}

	// Onto a tombstone: the name is live again, naming the renamed file.
	a, err := k.Stat(cred(), "/d/a")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Unlink(cred(), "/d/b"); err != nil {
		t.Fatal(err)
	}
	// The unlink's update committed at the CSS, and site 2's copy of /d
	// awaits its pull: its cache holds the version the pull is for, so the
	// search looks at /d there and sends nothing.
	afterUnlink := map[string]int64{"fs.dirop": 2, "fs.propnotify": 2}
	if sent, err := rename(cred(), "/d/a", "/d/b"); err != nil || !reflect.DeepEqual(sent, afterUnlink) {
		t.Fatalf("Rename(/d/a, /d/b) onto a tombstone = %v, sent %v; want nil and %v", err, sent, afterUnlink)
	}
	if got := list(cred(), "/d"); !slices.Equal(got, []string{"b", "c"}) {
		t.Errorf("/d lists %v", got)
	}
	if st, err := k.Stat(cred(), "/d/b"); err != nil || st.Num != a.Num || st.Nlink != 1 {
		t.Errorf("Stat(/d/b) = %+v, %v; want a's inode %d with one link", st, err, a.Num)
	}

	// Across directories: two updates, the insert's and the removal's.
	if sent, err := rename(cred(), "/d/c", "/e/c"); err != nil || !reflect.DeepEqual(sent, twoUpdates) {
		t.Fatalf("Rename(/d/c, /e/c) = %v, sent %v; want nil and %v", err, sent, twoUpdates)
	}
	if got := list(cred(), "/d"); !slices.Equal(got, []string{"b"}) {
		t.Errorf("/d lists %v", got)
	}
	if got := list(cred(), "/e"); !slices.Equal(got, []string{"c"}) {
		t.Errorf("/e lists %v", got)
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// BenchmarkRename is the tentpole's step, Rename("/d/tmp", "/d/f0001")
// in a 1,024-entry directory after the build's write of tmp and unlink
// of the target, from a site with a current copy and from one with a
// pending propagation of the directory (TestRenameSameDirectoryIsOneUpdate's
// "current" and "stale" cases). Each iteration renames the name back and
// forth; msgs/op counts what one rename sends.
func BenchmarkRename(b *testing.B) {
	for _, bc := range []struct {
		name  string
		stale bool
	}{{"current", false}, {"stale", true}} {
		b.Run(bc.name, func(b *testing.B) {
			c, _ := renameDir(b, 1024, 2, bc.stale)
			k := c.K(2)
			names := [2]string{"/d/tmp", "/d/f0001"}
			b.ReportAllocs()
			b.ResetTimer()
			before := c.Net.Stats()
			for i := 0; i < b.N; i++ {
				if err := k.Rename(cred(), names[i%2], names[(i+1)%2]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Net.Stats().Sub(before).Msgs)/float64(b.N), "msgs/op")
		})
	}
}

// TestCrossRenamesInOppositeDirections: a rename across directories
// holds both directories open for modification at the CSS, and a
// directory's modify open waits for the holder of its writer slot, so
// renames from /a to /b and from /b to /a at once would wait for each
// other for ever if each opened its old directory first. The CSS opens
// them in file order (openForUpdate): eight renames each way, from
// sites 2 and 3 at once, all finish, and every file is named once, in
// its new directory.
func TestCrossRenamesInOppositeDirections(t *testing.T) {
	c := newCluster(t, 3)
	for _, d := range []string{"/a", "/b"} {
		if err := c.K(1).Mkdir(cred(), d, 0755); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		writeFile(t, c.K(1), fmt.Sprintf("/a/x%d", i), nil)
		writeFile(t, c.K(1), fmt.Sprintf("/b/y%d", i), nil)
	}
	settle(t, c)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for _, mv := range []struct {
		site          fs.SiteID
		from, to, pre string
	}{{2, "/a", "/b", "x"}, {3, "/b", "/a", "y"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("/%s%d", mv.pre, i)
				if err := c.K(mv.site).Rename(cred(), mv.from+name, mv.to+name); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settle(t, c)
	for _, s := range c.Sites() {
		for dir, pre := range map[string]string{"/a": "y", "/b": "x"} {
			ents, err := c.K(s).ReadDir(cred(), dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range ents {
				names = append(names, e.Name)
			}
			if want := []string{pre + "0", pre + "1", pre + "2", pre + "3", pre + "4", pre + "5", pre + "6", pre + "7"}; !slices.Equal(names, want) {
				t.Errorf("site %d: %s lists %v, want %v", s, dir, names, want)
			}
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}
