package fs_test

// A deletion travels in its notification (§2.3.7: a delete "marks the
// inode and does a commit", and the storage sites release pages as it
// propagates). The note carries the committed tombstone: a storage site
// that holds the file commits it locally with no fs.pullopen, and one
// that never held the file records nothing.

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

// deleteDir builds a 3-site cluster whose /d is stored at site 1 alone
// and holds f, replicated at all three sites and settled, and g, stored
// at site 1 and then re-replicated at all three without a settle: sites
// 2 and 3 have queued a pull of g, a file they never held. /d's update
// is one fs.dirop to site 1, the CSS, which commits it locally and
// notifies nobody, so what a delete of f or g sends besides is the
// file's own traffic. It returns the cluster and the two files' ids.
func deleteDir(t testing.TB) (c *cluster.Cluster, f, g storage.FileID) {
	t.Helper()
	c, err := cluster.New(cluster.SimpleConfig(3), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	k := c.K(1)
	if err := k.Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.SetReplication(cred(), "/d", []fs.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	f = replicated(t, c, "/d/f")
	c.Settle()
	g = replicated(t, c, "/d/g")
	return c, f, g
}

// replicated writes path at site 1, whose directory is stored there
// alone, and replicates it at all three sites: the commit notifies sites
// 2 and 3, which queue a pull of it. It returns the file's id.
func replicated(t testing.TB, c *cluster.Cluster, path string) storage.FileID {
	t.Helper()
	k := c.K(1)
	writeFile(t, k, path, []byte(path))
	if err := k.SetReplication(cred(), path, []fs.SiteID{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	r, err := k.Resolve(cred(), path)
	if err != nil {
		t.Fatal(err)
	}
	return r.ID
}

// inodeAt returns site s's committed copy of id, or nil when it holds
// none.
func inodeAt(c *cluster.Cluster, s fs.SiteID, id storage.FileID) *storage.Inode {
	ino, err := c.K(s).Store().Container(id.FG).GetInode(id.Inode)
	if err != nil {
		return nil
	}
	return ino
}

// sameTombstone reports how got differs from the origin's tombstone
// want: the vector, type, owner and site list must be equal, and got
// must be deleted with no pages.
func sameTombstone(got, want *storage.Inode) error {
	switch {
	case got == nil:
		return fmt.Errorf("no copy")
	case !got.Deleted || len(got.Pages) != 0 || got.Size != 0:
		return fmt.Errorf("deleted=%v, %d pages, size %d: not a tombstone", got.Deleted, len(got.Pages), got.Size)
	case !got.VV.Equal(want.VV) || got.Type != want.Type || got.Owner != want.Owner || !reflect.DeepEqual(got.Sites, want.Sites):
		return fmt.Errorf("vv=%v type=%v owner=%s sites=%v, want vv=%v type=%v owner=%s sites=%v",
			got.VV, got.Type, got.Owner, got.Sites, want.VV, want.Type, want.Owner, want.Sites)
	}
	return nil
}

// noTasks fails the test if any site has a queued or stalled pull.
func noTasks(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for _, s := range c.UpSites() {
		if n, st := c.K(s).PendingPropagations(), c.K(s).StalledPropagations(); n != 0 || st != 0 {
			t.Errorf("site %d holds %d queued and %d stalled pulls: %s", s, n, st, c.K(s).DebugPendingPropagations())
		}
	}
}

// TestDeleteTravelsInNotification pins what unlinks of a 3-replica file
// f and of g, re-replicated but not yet pulled, send, and the settle
// after them: nothing. Without the tombstone in the notes, the settle
// would send four fs.pullopen exchanges: sites 1 and 3 would pull f's
// tombstone, and sites 2 and 3 g's, a file they never held.
func TestDeleteTravelsInNotification(t *testing.T) {
	c, f, g := deleteDir(t)
	k := c.K(2)
	for _, tc := range []struct {
		what string
		do   func() error
		want map[string]int64
	}{
		// The search looks at /d and reads it at site 1, and finds f's
		// copy at site 2 current. The unlink is one fs.dirop to site 1, the
		// CSS, which stores /d and a current copy of f: it removes the name
		// and commits /d, and commits f's delete there, which notifies
		// sites 2 and 3.
		{"unlink f", func() error { return k.Unlink(cred(), "/d/f") }, map[string]int64{
			"fs.open": 2, "fs.read": 2, "fs.dirop": 2, "fs.propnotify": 2}},
		// The search looks at /d again, since site 2's own unlink dropped
		// its delegation on it, and reads it from the cache at the version
		// that unlink made; then it looks at g, whose only copy is at
		// site 1. Then the fs.dirop, as above: g's delete notifies sites 2
		// and 3.
		{"unlink g", func() error { return k.Unlink(cred(), "/d/g") }, map[string]int64{
			"fs.open": 4, "fs.dirop": 2, "fs.propnotify": 2}},
		{"settle", func() error { c.Settle(); return nil }, map[string]int64{}},
	} {
		before := c.Net.Stats()
		if err := tc.do(); err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if d := c.Net.Stats().Sub(before); !reflect.DeepEqual(d.ByMethod, tc.want) {
			t.Errorf("%s sent %d messages %v, want %v", tc.what, d.Msgs, d.ByMethod, tc.want)
		}
	}
	noTasks(t, c)

	origin := inodeAt(c, 1, f)
	if err := sameTombstone(origin, origin); err != nil {
		t.Fatalf("site 1, f's origin: %v", err)
	}
	for _, s := range []fs.SiteID{2, 3} {
		if err := sameTombstone(inodeAt(c, s, f), origin); err != nil {
			t.Errorf("site %d's copy of f: %v", s, err)
		}
	}
	if err := sameTombstone(inodeAt(c, 1, g), inodeAt(c, 1, g)); err != nil {
		t.Errorf("site 1, g's origin: %v", err)
	}
	for _, s := range []fs.SiteID{2, 3} {
		if ino := inodeAt(c, s, g); ino != nil {
			t.Errorf("site %d never held g, yet holds %+v", s, ino)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}

	// The controlling pack, site 1, reclaims both: every storage site
	// has seen each delete, sites 2 and 3 by holding no copy of g.
	if n := c.K(1).CollectGarbage(); n != 2 {
		t.Errorf("gc reclaimed %d tombstones, want f's and g's", n)
	}
	for _, id := range []storage.FileID{f, g} {
		if ino := inodeAt(c, 1, id); ino != nil {
			t.Errorf("site 1 still holds %v after gc: %+v", id, ino)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after gc: %v", findings)
	}
}

// TestDeleteNotificationCut cuts a delete's notification to one storage
// site, two ways: all 8 transmissions of the note are dropped, or the
// notified site crashes as the note reaches it, before its local commit
// (the note is lost with it). The CSS, site 1, which stores /d alone,
// commits each delete at the file's storage site: for f, site 2, which
// wrote f last and so holds its one current copy (the CSS's own copy
// awaits its pull, so the CSS polls and opens f there); for g, site 1.
// The cut site holds a copy of f, or never held g. Right after the cut
// its copy, or its lack of one, must be as it was. After the site
// restarts, the network heals, the merge runs and the controlling pack's
// garbage collection nudges any pack that missed the delete, the delete
// must have reached it (a tombstone equal to the origin's, or no copy),
// fsck must be clean and no pull may be left queued or stalled. Crashing
// site 1 under f's delete is left out: it is the CSS, amid the unlink's
// fs.dirop, where TestDirOpCutAtEveryExchange cuts it.
func TestDeleteNotificationCut(t *testing.T) {
	type cut struct {
		path       string
		origin, to fs.SiteID
		crash      bool
	}
	var cuts []cut
	for _, to := range []fs.SiteID{1, 3} {
		cuts = append(cuts, cut{"/d/f", 2, to, false})
	}
	cuts = append(cuts, cut{"/d/f", 2, 3, true})
	for _, to := range []fs.SiteID{2, 3} {
		cuts = append(cuts, cut{"/d/g", 1, to, false}, cut{"/d/g", 1, to, true})
	}
	for _, cu := range cuts {
		how := "drop"
		if cu.crash {
			how = "crash"
		}
		t.Run(fmt.Sprintf("%s:%d->%d/%s", cu.path[len("/d/"):], cu.origin, cu.to, how), func(t *testing.T) {
			c, f, g := deleteDir(t)
			id := f
			if cu.path == "/d/g" {
				id = g
			} else {
				writeAt(t, c.K(2), cu.path, "f2")
			}
			old := inodeAt(c, cu.to, id)
			cut := fs.Cut{At: fs.NthRequest(cu.origin, cu.to, "fs.propnotify", 1), Drop: 8}
			if cu.crash {
				cut.Crash = cu.to
			}
			before := c.Net.Stats()
			var err error
			cut.Run(c.Net, func() { err = c.K(cu.origin).Unlink(cred(), cu.path) })
			if err != nil {
				t.Fatalf("unlink: %v", err)
			}
			if cu.crash == c.Net.Up(cu.to) {
				t.Fatalf("site %d up = %v after the cut, want %v: the cut missed the note", cu.to, c.Net.Up(cu.to), !cu.crash)
			}
			if d := c.Net.Stats().Sub(before); !cu.crash && d.MsgsDropped != 8 {
				t.Fatalf("%d notes dropped, want 8: the fault missed the note", d.MsgsDropped)
			}
			if got := inodeAt(c, cu.to, id); got != old {
				t.Fatalf("site %d's copy changed under the cut: %+v, was %+v", cu.to, got, old)
			}
			tomb := inodeAt(c, cu.origin, id)

			if cu.crash {
				c.Crash(cu.to) // the survivors learn of it
				c.Net.Restart(cu.to)
			}
			if _, err := c.Merge(); err != nil {
				t.Fatal(err)
			}
			c.K(1).CollectGarbage()
			c.Settle()
			noTasks(t, c)
			if findings := c.Fsck(true); len(findings) != 0 {
				t.Fatalf("fsck after the cut: %v", findings)
			}
			if got := inodeAt(c, cu.to, id); got != nil {
				if err := sameTombstone(got, tomb); err != nil {
					t.Fatalf("site %d's copy after the merge: %v", cu.to, err)
				}
			}
		})
	}
}

// TestDeleteNoteOnConcurrentCopyMarksConflict: site 3, partitioned away,
// modifies f while site 2 deletes it. After the network heals, and
// before the merge, the delete's note reaches site 3, whose copy is
// concurrent with the tombstone. The note must mark the copy in conflict
// exactly as a pull of the tombstone does, sending no fs.pullopen, and
// the merge must then save the modified version at every site, as
// §5.5's rule for a delete/modify race asks.
func TestDeleteNoteOnConcurrentCopyMarksConflict(t *testing.T) {
	var marked [2]*storage.Inode
	for i, byNote := range []bool{true, false} {
		c := newCluster(t, 3)
		writeFile(t, c.K(1), "/f", []byte("v1"))
		settle(t, c)
		r, err := c.K(1).Resolve(cred(), "/f")
		if err != nil {
			t.Fatal(err)
		}
		c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
		w, err := c.K(3).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt([]byte("v2"), 0); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.K(2).Unlink(cred(), "/f"); err != nil {
			t.Fatal(err)
		}
		if err := c.Heal(); err != nil {
			t.Fatal(err)
		}
		settle(t, c)
		modified, tomb := inodeAt(c, 3, r.ID), inodeAt(c, 2, r.ID)

		before := c.Net.Stats()
		if byNote {
			if err := fs.NotifyTombstone(c.K(2), 3, r.ID); err != nil {
				t.Fatal(err)
			}
		} else {
			c.K(2).SchedulePullAt([]fs.SiteID{3}, r.ID, tomb.VV, 2)
			c.K(3).DrainPropagation()
		}
		d := c.Net.Stats().Sub(before)
		if byNote && !reflect.DeepEqual(d.ByMethod, map[string]int64{"fs.propnotify": 1}) {
			t.Errorf("the note's delivery sent %v, want the note alone", d.ByMethod)
		}
		marked[i] = inodeAt(c, 3, r.ID)
		if got := marked[i]; got.Deleted || !got.Conflict || !got.VV.Equal(modified.VV) {
			t.Fatalf("byNote=%v: site 3 holds deleted=%v conflict=%v vv=%v, want its modified copy %v marked in conflict",
				byNote, got.Deleted, got.Conflict, got.VV, modified.VV)
		}

		for _, s := range c.Sites() {
			if _, err := c.Site(s).Recon.ReconcileAll(); err != nil {
				t.Fatalf("reconcile at site %d: %v", s, err)
			}
		}
		settle(t, c)
		noTasks(t, c)
		for _, s := range c.Sites() {
			if got := readFile(t, c.K(s), "/f"); string(got) != "v2" {
				t.Errorf("byNote=%v: site %d reads %q after the merge, want the modified version", byNote, s, got)
			}
		}
		if findings := c.Fsck(true); len(findings) != 0 {
			t.Fatalf("fsck after the merge: %v", findings)
		}
	}
	if !reflect.DeepEqual(marked[0], marked[1]) {
		t.Errorf("the note left %+v at site 3, the pull %+v", marked[0], marked[1])
	}
}

// BenchmarkPropagateDelete is the delete's propagation: an unlink at
// site 2 of a file replicated at all three sites, in a directory stored
// at site 1 alone, and the settle after it. The file is written,
// replicated and settled, and the tombstone reclaimed, with the timer
// stopped. msgs/op counts what the unlink and settle send, and pulls/op
// their fs.pullopen exchanges: 0, where a pull of the tombstone at each
// other replica made it 2.
func BenchmarkPropagateDelete(b *testing.B) {
	c, _, _ := deleteDir(b)
	c.Settle()
	var msgs, pulls int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replicated(b, c, "/d/b")
		c.Settle()
		before := c.Net.Stats()
		b.StartTimer()
		if err := c.K(2).Unlink(cred(), "/d/b"); err != nil {
			b.Fatal(err)
		}
		c.Settle()
		b.StopTimer()
		d := c.Net.Stats().Sub(before)
		msgs, pulls = msgs+d.Msgs, pulls+d.ByMethod["fs.pullopen"]/2
		c.K(1).CollectGarbage()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
	b.ReportMetric(float64(pulls)/float64(b.N), "pulls/op")
}

// TestDeleteRetiresReplicaOffTheList: a pack leaving a file's storage
// list retires its copy once every listed pack has seen the version,
// and a delete is seen by a listed pack that never held the file, which
// records nothing of it. h starts at sites 1 and 2; SetReplication moves
// it to sites 2 and 3 (or 1 and 3), and the delete comes before site 3,
// which never held it, has pulled. The retiring pack is the delete's
// origin, the CSS told of the delete, or a pack that learns it is off
// the list from its own pull of the tombstone. Each must retire, leaving
// nothing queued.
func TestDeleteRetiresReplicaOffTheList(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sites    []fs.SiteID
		moveAt   fs.SiteID // the site that runs SetReplication and Unlink
		modifyAt fs.SiteID // a site that commits h first, unsettled, or 0
		retiring fs.SiteID
	}{
		{"origin", []fs.SiteID{2, 3}, 1, 0, 1},
		{"css", []fs.SiteID{2, 3}, 2, 0, 1},
		{"puller", []fs.SiteID{1, 3}, 1, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _, _ := deleteDir(t)
			settle(t, c)
			k := c.K(1)
			writeFile(t, k, "/d/h", []byte("h"))
			if err := k.SetReplication(cred(), "/d/h", []fs.SiteID{1, 2}); err != nil {
				t.Fatal(err)
			}
			settle(t, c)
			r, err := k.Resolve(cred(), "/d/h")
			if err != nil {
				t.Fatal(err)
			}
			if tc.modifyAt != 0 {
				w, err := c.K(tc.modifyAt).OpenID(r.ID, fs.ModeModify)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.WriteAt([]byte("H"), 0); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.K(tc.moveAt).SetReplication(cred(), "/d/h", tc.sites); err != nil {
				t.Fatal(err)
			}
			if err := c.K(tc.moveAt).Unlink(cred(), "/d/h"); err != nil {
				t.Fatal(err)
			}
			settle(t, c)
			noTasks(t, c)
			if ino := inodeAt(c, tc.retiring, r.ID); ino != nil {
				t.Errorf("site %d, off the list, still holds %+v", tc.retiring, ino)
			}
			if ino := inodeAt(c, 3, r.ID); ino != nil {
				t.Errorf("site 3 never held h, yet holds %+v", ino)
			}
			if findings := c.Fsck(true); len(findings) != 0 {
				t.Fatalf("fsck: %v", findings)
			}
		})
	}
}
