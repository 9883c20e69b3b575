package fs_test

// A commit's note reaches every site that must hear of it (§2.3.6): the
// file's storage sites, before and after the commit, and the CSS. A
// create's or an unlink's commits at the CSS reach each other site in
// one fs.propnotify, their notes in commit order, and a new file's birth
// note comes back to the CSS in the birth pack's reply, to be sent on
// with the entry's.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// propNotifiesTo runs op and counts the fs.propnotify messages it sends,
// by destination and by origin.
func propNotifiesTo(t *testing.T, c *cluster.Cluster, op func() error) (to, from map[fs.SiteID]int) {
	t.Helper()
	to, from = map[fs.SiteID]int{}, map[fs.SiteID]int{}
	c.Net.SetTrace(func(src, dst fs.SiteID, method string) {
		if method == "fs.propnotify" {
			to[dst]++
			from[src]++
		}
	})
	err := op()
	c.Net.SetTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	return to, from
}

// TestNamespaceOpSendsOneNotePerSite runs each operation of nsOps whose
// commits at the CSS send their notes together, a create's and an
// unlink's (a rename's one commit sends one note anyway), from the sites
// of TestNamespaceOpCosts, and an unlink of a file stored at sites 1 and
// 3 alone ("narrow"), under both regimes. Each sends at most one
// fs.propnotify to each site, and after the cluster settles every copy
// has converged (fsck). The narrow file's notes and /d's go to different
// sites: site 2 hears of /d's commit alone, the first of the two notes,
// sent as a copy; a create from site 2 sends site 2, the birth pack, the
// entry's note alone, the last, where it lies in the chain.
func TestNamespaceOpSendsOneNotePerSite(t *testing.T) {
	var together []nsOp
	for _, op := range nsOps {
		if op.name != "link" && op.name != "xrename" {
			together = append(together, op)
		}
	}
	narrow := []nsOp{
		{"unlink/narrow", func(k *fs.Kernel) error { return k.Unlink(cred(), "/d/f0002") }},
	}
	for _, rg := range regimes {
		for _, row := range []struct {
			name  string
			us    fs.SiteID
			stale bool
			ops   []nsOp
		}{
			{"current/css", 1, false, together},
			{"current", 2, false, together},
			{"stale", 2, true, together},
			{"stale/ss-is-css", 3, true, together},
			{"narrow", 2, false, narrow},
		} {
			for _, op := range row.ops {
				t.Run(rg.prefix+row.name+"/"+op.name, func(t *testing.T) {
					c, _ := featureRenameDir(t, rg.features, 8, row.us, row.stale)
					if strings.HasSuffix(op.name, "/narrow") {
						if err := c.K(1).SetReplication(cred(), "/d/f0002", []fs.SiteID{1, 3}); err != nil {
							t.Fatal(err)
						}
						settle(t, c)
					}
					to, _ := propNotifiesTo(t, c, func() error { return op.run(c.K(row.us)) })
					if len(to) == 0 {
						t.Fatalf("%s sent no fs.propnotify", op.name)
					}
					for s, n := range to {
						if n > 1 {
							t.Errorf("%s sent %d fs.propnotify messages to site %d, want 1", op.name, n, s)
						}
					}
					settle(t, c)
					if findings := c.Fsck(true); len(findings) != 0 {
						t.Fatalf("fsck: %v", findings)
					}
				})
			}
		}
	}
}

// TestMkdirBirthNoteReachesEveryPack: a directory made at site 2, not the
// CSS, and never written, reaches all three packs once the cluster
// settles. Site 2, the birth pack, casts no note: the birth's note comes
// back to the CSS in the fs.sscreate reply, which the CSS applies and
// sends on to site 3, whose only news of the new inode it is.
func TestMkdirBirthNoteReachesEveryPack(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"mkdir", func(t *testing.T) {
			c := featureCluster(t, 3, rg.features)
			to, from := propNotifiesTo(t, c, func() error { return c.K(2).Mkdir(cred(), "/new", 0755) })
			if from[2] != 0 || from[1] != 2 || to[2] != 1 || to[3] != 1 {
				t.Errorf("the mkdir sent fs.propnotify to %v, from %v; want one from site 1 to each of sites 2 and 3", to, from)
			}
			r, err := c.K(1).Resolve(cred(), "/new")
			if err != nil {
				t.Fatal(err)
			}
			settle(t, c)
			for _, s := range c.Sites() {
				if ino := inodeAt(c, s, r.ID); ino == nil || !ino.Type.IsDir() {
					t.Errorf("site %d holds %+v of /new, want the directory", s, ino)
				}
			}
			if findings := c.Fsck(true); len(findings) != 0 {
				t.Fatalf("fsck: %v", findings)
			}
		})
	}
}

// TestBundledNoteCut cuts an unlink's one note message to site 3, which
// carries both of the CSS's commits, /d's and the file's delete, two
// ways, as TestDeleteNotificationCut cuts a note sent alone: all 8
// transmissions of it are dropped, or site 3 crashes as it reaches it,
// the message dropped too or not (crash/nodrop: netsim loses a message to
// a site the trace hook crashed, as a dropped one). Site 3's copies must
// be as they were right after the cut. After the site restarts, the
// network heals, the merge runs and the controlling pack's garbage
// collection nudges any pack that missed the delete, site 3 must hold the
// file's tombstone (or no copy) and /d's version at the CSS, fsck must be
// clean and no pull may be left.
func TestBundledNoteCut(t *testing.T) {
	for _, rg := range regimes {
		for _, cut := range []struct {
			how         string
			crash, drop bool
		}{{"drop", false, true}, {"crash", true, true}, {"crash/nodrop", true, false}} {
			crash := cut.crash
			t.Run(rg.prefix+cut.how, func(t *testing.T) {
				c, _ := featureRenameDir(t, rg.features, 8, 2, false)
				settle(t, c)
				file, err := c.K(1).Resolve(cred(), "/d/f0002")
				if err != nil {
					t.Fatal(err)
				}
				dir, err := c.K(1).Resolve(cred(), "/d")
				if err != nil {
					t.Fatal(err)
				}
				oldFile, oldDir := inodeAt(c, 3, file.ID), inodeAt(c, 3, dir.ID)
				var pts []netsim.FaultPoint
				for j := 0; cut.drop && j < 8; j++ {
					pts = append(pts, netsim.FaultPoint{From: 1, To: 3, Method: "fs.propnotify", Nth: 1, Action: netsim.FaultDropRequest})
				}
				c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
				if crash {
					c.Net.SetTrace(func(from, to fs.SiteID, method string) {
						if from == 1 && to == 3 && method == "fs.propnotify" {
							c.Net.Crash(3)
						}
					})
				}
				before := c.Net.Stats()
				err = c.K(2).Unlink(cred(), "/d/f0002")
				d := c.Net.Stats().Sub(before)
				c.Net.SetTrace(nil)
				c.Net.DisableFaults()
				if err != nil {
					t.Fatalf("unlink: %v", err)
				}
				if crash == c.Net.Up(3) {
					t.Fatalf("site 3 up = %v after the cut: the cut missed the note", c.Net.Up(3))
				}
				if !crash && d.MsgsDropped != 8 {
					t.Fatalf("%d messages dropped, want 8: the fault missed the note", d.MsgsDropped)
				}
				if got := inodeAt(c, 3, file.ID); got != oldFile {
					t.Fatalf("site 3's copy of the file changed under the cut: %+v, was %+v", got, oldFile)
				}
				if got := inodeAt(c, 3, dir.ID); got != oldDir {
					t.Fatalf("site 3's copy of /d changed under the cut: %+v, was %+v", got, oldDir)
				}
				tomb := inodeAt(c, 1, file.ID)
				if crash {
					c.Crash(3) // the survivors learn of it
					c.Net.Restart(3)
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
				if got := inodeAt(c, 3, file.ID); got != nil {
					if err := sameTombstone(got, tomb); err != nil {
						t.Fatalf("site 3's copy of the file after the merge: %v", err)
					}
				}
				if got, want := inodeAt(c, 3, dir.ID), inodeAt(c, 1, dir.ID); got == nil || !got.VV.Equal(want.VV) {
					t.Fatalf("site 3's copy of /d after the merge is %+v, want the CSS's version %v", got, want.VV)
				}
			})
		}
	}
}

// replicationDropped makes /d at site 1, settles, and has the CSS commit
// a file into it, so that sites 2 and 3 queue a pull of /d, and then drop
// site 2 from /d's storage sites. It returns the cluster and /d's id.
func replicationDropped(t *testing.T, pending bool) (*cluster.Cluster, storage.FileID) {
	t.Helper()
	c := newCluster(t, 3)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if pending {
		writeFile(t, c.K(1), "/d/a", []byte("a"))
	}
	if err := c.K(1).SetReplication(cred(), "/d", []fs.SiteID{1, 3}); err != nil {
		t.Fatal(err)
	}
	r, err := c.K(1).Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	return c, r.ID
}

// TestReplicationDropNotifiesDroppedSite: the commit that drops site 2
// from /d's storage sites notifies site 2 too, which stops serving its
// copy as current: once site 3 has made /d/new3, site 2 finds it.
func TestReplicationDropNotifiesDroppedSite(t *testing.T) {
	c, _ := replicationDropped(t, false)
	writeFile(t, c.K(3), "/d/new3", []byte("3"))
	if _, err := c.K(2).Stat(cred(), "/d/new3"); err != nil {
		t.Fatalf("site 2: Stat(/d/new3) = %v", err)
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestRetirementFoundByPullMarksLiveTask: site 2, whose pull of /d was
// queued before the CSS dropped it from /d's storage sites, learns of the
// drop from the pull itself, while site 3 has yet to pull the version the
// retirement waits for. The queued task becomes a retirement, so that the
// next drain retries it with no fs.pullopen, and once site 3 has pulled
// it, site 2 holds no copy.
func TestRetirementFoundByPullMarksLiveTask(t *testing.T) {
	c, d := replicationDropped(t, true)
	c.K(2).DrainPropagation()
	if got := c.K(2).DebugPendingPropagations(); !strings.Contains(got, fmt.Sprintf("%v vv=", d)) || !strings.Contains(got, "drop=true") {
		t.Fatalf("site 2's tasks after its drain: %q, want /d's (%v) a retirement", got, d)
	}
	before := c.Net.Stats()
	c.K(2).DrainPropagation()
	if n := c.Net.Stats().Sub(before).ByMethod["fs.pullopen"]; n != 0 {
		t.Errorf("site 2's second drain sent %d fs.pullopen messages, want none", n)
	}
	settle(t, c)
	if ino := inodeAt(c, 2, d); ino != nil {
		t.Errorf("site 2 still holds /d after it settled: %+v", ino)
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestOutboxOverflowReachesEverySite: in a filegroup of ten packs a
// note names nine other sites, more than an outbox routes, so each of a
// mkdir's two notes at the CSS, the birth's and /'s, goes out on its own,
// in commit order, and the new directory still reaches every pack.
func TestOutboxOverflowReachesEverySite(t *testing.T) {
	c := newCluster(t, 10)
	to, _ := propNotifiesTo(t, c, func() error { return c.K(1).Mkdir(cred(), "/new", 0755) })
	for s := fs.SiteID(2); s <= 10; s++ {
		if to[s] != 2 {
			t.Errorf("site %d got %d fs.propnotify messages, want 2: %v", s, to[s], to)
		}
	}
	r, err := c.K(1).Resolve(cred(), "/new")
	if err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	for _, s := range c.Sites() {
		if ino := inodeAt(c, s, r.ID); ino == nil || !ino.Type.IsDir() {
			t.Errorf("site %d holds %+v of /new, want the directory", s, ino)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}
