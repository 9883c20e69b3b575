package fs_test

// Rename within one directory is one directory update (§2.3.6: a
// shadow-page commit makes one file atomic, and the directory is that
// file): one modify open, one write, one commit, one close and one
// propagation fan-out, after one search of the shared parent.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/recon"
	"repro/internal/storage"
)

// renameDir builds a 3-site cluster whose replicated /d holds files
// f0000 … f<n-1>, settled, and readies a rename at site us the way a
// build does: us writes /d/tmp and unlinks /d/f0001, the target. stale
// first has another site update /d, so us holds a pending propagation
// of it and its directory updates go to a remote storage site (its
// directory cache stays current: it made the last update itself).
// It returns the cluster and tmp's inode.
func renameDir(t testing.TB, n int, us fs.SiteID, stale bool) (*cluster.Cluster, storage.InodeNum) {
	t.Helper()
	c, err := cluster.New(cluster.SimpleConfig(3), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
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

// TestRenameSameDirectoryIsOneUpdate pins what Rename("/d/tmp",
// "/d/f0001") sends in a 1,024-entry directory: one directory update.
// Made of two, an insert and then a removal, each with its own open,
// write, commit, close and fan-out, it sends twice each count (in the
// order of the table 4, 12, 44 and 32 messages, with 4 fs.commit
// messages from the stale sites).
func TestRenameSameDirectoryIsOneUpdate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		us    fs.SiteID
		stale bool
		want  map[string]int64
	}{
		// Site 1 is the CSS and stores a current copy: the update is
		// local but for the fan-out to the other two copies.
		{"current/css", 1, false, map[string]int64{"fs.propnotify": 2}},
		// Site 2 stores a current copy: the modify open asks the CSS,
		// the close tells it.
		{"current", 2, false, map[string]int64{"fs.open": 2, "fs.ssclose": 2, "fs.propnotify": 2}},
		// A pending propagation of /d sends the search's look at it to the
		// CSS, which polls the current storage site, site 3; then one
		// modify open (polled the same way), the write and its read-back
		// of the last page, one commit exchange, the close and the
		// fan-out.
		{"stale", 2, true, map[string]int64{"fs.open": 4, "fs.ssopen": 4, "fs.read": 2, "fs.write": 4,
			"fs.commit": 2, "fs.close": 2, "fs.ssclose": 2, "fs.propnotify": 2}},
		// Here the current storage site is the CSS, site 1.
		{"stale/ss-is-css", 3, true, map[string]int64{"fs.open": 4, "fs.read": 2, "fs.write": 4,
			"fs.commit": 2, "fs.close": 2, "fs.propnotify": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, ino := renameDir(t, 1024, tc.us, tc.stale)
			before := c.Net.Stats()
			if err := c.K(tc.us).Rename(cred(), "/d/tmp", "/d/f0001"); err != nil {
				t.Fatal(err)
			}
			d := c.Net.Stats().Sub(before)
			if !reflect.DeepEqual(d.ByMethod, tc.want) {
				t.Errorf("the rename sent %d messages %v, want %v", d.Msgs, d.ByMethod, tc.want)
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
// with a pending propagation of the directory at each exchange it makes,
// nested ones included, one exchange per case. Each is cut two ways: all
// 8 transmissions of its request are dropped, or the using site crashes
// as it is sent (the request is delivered, the reply finds no caller).
// After the network heals (or the site restarts) and propagation
// settles, fsck must be clean and every site must name the file by
// exactly one live entry, old or new, with a link count of 1; a rename
// that reported success must have left the new name, and one whose
// request was dropped and that reported an error the old. A rename made
// of two commits, an insert and then a removal, leaves both names when
// it is cut between them. The last case drops a Create's directory
// update commit the same way: the entry must land nowhere.
func TestRenameCutAtEveryExchange(t *testing.T) {
	const us = 2
	type exchange struct {
		from, to fs.SiteID
		method   string
		nth      int
	}
	c, _ := renameDir(t, 8, us, true)
	var exchanges []exchange
	seen := map[exchange]int{}
	c.Net.SetTrace(func(from, to fs.SiteID, method string) {
		key := exchange{from: from, to: to, method: method}
		seen[key]++
		key.nth = seen[key]
		exchanges = append(exchanges, key)
	})
	if err := c.K(us).Rename(cred(), "/d/tmp", "/d/f0001"); err != nil {
		t.Fatal(err)
	}
	c.Net.SetTrace(nil)

	for i, ex := range exchanges {
		for _, crash := range []bool{false, true} {
			how := "drop"
			if crash {
				how = "crash"
			}
			t.Run(fmt.Sprintf("%02d:%d->%d/%s#%d/%s", i, ex.from, ex.to, ex.method, ex.nth, how), func(t *testing.T) {
				c, ino := renameDir(t, 8, us, true)
				before := c.Net.Stats()
				if crash {
					sent := 0
					c.Net.SetTrace(func(fs.SiteID, fs.SiteID, string) {
						if sent++; sent == i+1 {
							c.Net.Crash(us)
						}
					})
				} else {
					// Eight points of one Nth fire on eight consecutive sends:
					// the request and its every retransmission.
					var pts []netsim.FaultPoint
					for j := 0; j < 8; j++ {
						pts = append(pts, netsim.FaultPoint{From: ex.from, To: ex.to, Method: ex.method, Nth: ex.nth, Action: netsim.FaultDropRequest})
					}
					c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
				}
				err := c.K(us).Rename(cred(), "/d/tmp", "/d/f0001")
				c.Net.SetTrace(nil)
				c.Net.DisableFaults()
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

	// Every transmission of the directory update's fs.commit is lost: the
	// create fails and rolls its inode back, and no site names it.
	t.Run("create/fs.commit/drop", func(t *testing.T) {
		c, _ := renameDir(t, 8, us, true)
		var pts []netsim.FaultPoint
		for j := 0; j < 8; j++ {
			pts = append(pts, netsim.FaultPoint{From: us, Method: "fs.commit", Action: netsim.FaultDropRequest})
		}
		c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
		before := c.Net.Stats()
		_, err := c.K(us).Create(cred(), "/d/new", storage.TypeRegular, 0644)
		d := c.Net.Stats().Sub(before)
		c.Net.DisableFaults()
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

// healAfterCut heals and merges (§5.5), as a restart does — a restarted
// site lost its queued pulls with the rest of its volatile state, and
// only the merge finds its copy of /d stale — and settles; fsck must
// then be clean.
func healAfterCut(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	c.Heal()
	c.Settle()
	for _, s := range c.Sites() {
		if _, err := recon.New(c.K(s)).ReconcileAll(); err != nil {
			t.Fatalf("reconcile at site %d: %v", s, err)
		}
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after the cut: %v", findings)
	}
}

// TestRenameGuards pins names and errors of the renames the one-update
// path must leave as they were: through a hidden directory, by its
// escape, onto itself, onto a live name and onto a tombstone. A rename
// across directories is still two updates.
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
	// across two directories, in two updates.
	oneUpdate := map[string]int64{"fs.open": 2, "fs.ssclose": 2, "fs.propnotify": 2}
	twoUpdates := map[string]int64{"fs.open": 4, "fs.ssclose": 4, "fs.propnotify": 4}
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
	if sent, err := rename(cred(), "/d/a", "/d/b"); err != nil || !reflect.DeepEqual(sent, oneUpdate) {
		t.Fatalf("Rename(/d/a, /d/b) onto a tombstone = %v, sent %v; want nil and %v", err, sent, oneUpdate)
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
