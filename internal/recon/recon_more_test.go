package recon_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

// TestPropertyRandomDivergenceConverges drives random partitioned
// activity (creates, updates, deletes) and checks the invariant the
// paper's recovery design promises: after merge + reconciliation, all
// packs hold identical directory contents and every surviving file is
// identical everywhere or consistently marked in conflict.
func TestPropertyRandomDivergenceConverges(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := cluster.Simple(2)
		defer c.Close()
		sessions := map[fs.SiteID]*fs.Cred{1: fs.DefaultCred("u"), 2: fs.DefaultCred("u")}

		// Shared base files.
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			f, err := c.K(1).Create(sessions[1], "/"+n, storage.TypeRegular, 0644)
			if err != nil {
				return false
			}
			if err := f.WriteAll([]byte("base " + n)); err != nil {
				return false
			}
			if err := f.Close(); err != nil {
				return false
			}
		}
		c.Settle()
		c.Partition([]fs.SiteID{1}, []fs.SiteID{2})

		// Random independent activity in each partition.
		for _, site := range []fs.SiteID{1, 2} {
			k := c.K(site)
			for op := 0; op < 4; op++ {
				switch r.Intn(3) {
				case 0: // create a unique name
					name := fmt.Sprintf("/p%d-%d", site, op)
					if f, err := k.Create(sessions[site], name, storage.TypeRegular, 0644); err == nil {
						f.WriteAll([]byte(name)) //nolint:errcheck
						f.Close()                //nolint:errcheck
					}
				case 1: // update a shared file
					name := "/" + names[r.Intn(len(names))]
					if f, err := k.Open(sessions[site], name, fs.ModeModify); err == nil {
						f.WriteAll([]byte(fmt.Sprintf("upd@%d", site))) //nolint:errcheck
						f.Close()                                       //nolint:errcheck
					}
				case 2: // delete a shared file
					k.Unlink(sessions[site], "/"+names[r.Intn(len(names))]) //nolint:errcheck
				}
			}
		}

		if _, err := c.Merge(); err != nil {
			return false
		}

		// Invariant 1: identical root listings.
		l1 := listNames(c.K(1))
		l2 := listNames(c.K(2))
		if strings.Join(l1, ",") != strings.Join(l2, ",") {
			t.Logf("seed %d: listings diverge: %v vs %v", seed, l1, l2)
			return false
		}
		// Invariant 2: every pack pair for every inode is equal or
		// consistently conflict-marked.
		s1, _ := c.K(1).ListInodesAt(1, 1)
		byNum := map[storage.InodeNum]fs.InodeSummary{}
		for _, s := range s1 {
			byNum[s.Num] = s
		}
		s2, _ := c.K(1).ListInodesAt(2, 1)
		for _, b := range s2 {
			a, ok := byNum[b.Num]
			if !ok {
				continue
			}
			if a.Conflict != b.Conflict {
				t.Logf("seed %d: conflict marks differ for %d", seed, b.Num)
				return false
			}
			if !a.Conflict && !a.Deleted && !b.Deleted && !a.VV.Equal(b.VV) {
				t.Logf("seed %d: inode %d vectors %v vs %v", seed, b.Num, a.VV, b.VV)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func listNames(k *fs.Kernel) []string {
	ents, err := k.ReadDir(fs.DefaultCred("u"), "/")
	if err != nil {
		return []string{"ERR:" + err.Error()}
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func TestHiddenDirectoryMerge(t *testing.T) {
	// Hidden directories merge with the same rules as ordinary ones.
	h := newHarness(t, 2)
	k1 := h.c.K(1)
	if err := k1.MkHidden(cred(), "/cmd", 0755); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	write(t, h.c.K(1), "/cmd@@/vax", "vax module")
	write(t, h.c.K(2), "/cmd@@/pdp11", "pdp module")
	h.merge(t)
	ents, err := k1.ReadDir(cred(), "/cmd@@")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("hidden dir after merge: %+v", ents)
	}
	// Context resolution works on both sides.
	vax := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	if got := readWith(t, h.c.K(2), vax, "/cmd"); got != "vax module" {
		t.Fatalf("read %q", got)
	}
}

func readWith(t *testing.T, k *fs.Kernel, c *fs.Cred, path string) string {
	t.Helper()
	f, err := k.Open(c, path, fs.ModeRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close() //nolint:errcheck
	d, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return string(d)
}

func TestLinkSurvivesMergeOfRename(t *testing.T) {
	// One partition renames a file while the other links it: both the
	// new name and the link survive, pointing at the same inode.
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/orig", "content")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	if err := h.c.K(1).Rename(cred(), "/orig", "/renamed"); err != nil {
		t.Fatal(err)
	}
	if err := h.c.K(2).Link(cred(), "/orig", "/linked"); err != nil {
		t.Fatal(err)
	}
	h.merge(t)

	r1, err1 := h.c.K(1).Resolve(cred(), "/renamed")
	r2, err2 := h.c.K(1).Resolve(cred(), "/linked")
	if err1 != nil || err2 != nil {
		t.Fatalf("resolve: %v %v", err1, err2)
	}
	if r1.ID != r2.ID {
		t.Fatalf("renamed %v and linked %v diverge", r1.ID, r2.ID)
	}
	if got := read(t, h.c.K(2), "/renamed"); got != "content" {
		t.Fatalf("content %q", got)
	}
}

func TestThreePackConflictMarksAllCopies(t *testing.T) {
	h := newHarness(t, 3)
	write(t, h.c.K(1), "/f", "base")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2}, []fs.SiteID{3})
	for s := fs.SiteID(1); s <= 3; s++ {
		update(t, h.c.K(s), "/f", fmt.Sprintf("way-%d", s))
	}
	rep := h.merge(t)
	if rep.ConflictsReported != 1 {
		t.Fatalf("reported %d conflicts, want 1", rep.ConflictsReported)
	}
	confs := h.r(1).ListConflicts()
	if len(confs) != 1 || len(confs[0].Copies) != 3 {
		t.Fatalf("conflicts: %+v", confs)
	}
	// ResolveKeep of the three-way conflict converges everywhere.
	if err := h.r(1).ResolveKeep(confs[0].ID, 2); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	for s := fs.SiteID(1); s <= 3; s++ {
		if got := read(t, h.c.K(s), "/f"); got != "way-2" {
			t.Fatalf("site %d: %q", s, got)
		}
	}
}

func TestMergeReportCountsAreExact(t *testing.T) {
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/keep", "same")
	write(t, h.c.K(1), "/mod", "v1")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	update(t, h.c.K(1), "/mod", "v2") // plain staleness for site 2
	write(t, h.c.K(2), "/fresh", "new")
	rep := h.merge(t)
	if rep.ConflictsReported != 0 || rep.NameConflicts != 0 || rep.DeletesUndone != 0 {
		t.Fatalf("unexpected conflict counts: %+v", rep)
	}
	if rep.DirsMerged != 1 {
		t.Fatalf("DirsMerged = %d, want 1 (the root)", rep.DirsMerged)
	}
	if rep.Propagated < 1 {
		t.Fatalf("Propagated = %d, want >=1 (/mod)", rep.Propagated)
	}
}
