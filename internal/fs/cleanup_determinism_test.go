package fs_test

// The cleanup procedure's wire schedule must be a pure function of the
// cluster state: CleanupAfterPartitionChange iterates the open-file,
// serving, and synchronization tables — all Go maps — and acts on the
// wire per entry (reopenElsewhere is a remote open). Iterating those
// maps raw would make the failover ORDER depend on the runtime's map
// hash seed, silently breaking the chaos plane's promise that a seed
// replays byte-identically. These tests pin the fix: two identical runs
// must produce byte-identical cleanup wire schedules.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// runPartitionCleanupSchedule builds a fresh cluster whose packless
// site 1 holds a spread of remote read handles served by site 2, drops
// site 2 from the partition, and returns the wire schedule site 1's
// cleanup produced while failing the handles over to site 3.
func runPartitionCleanupSchedule(t *testing.T) []string {
	t.Helper()
	packs := []fs.PackDesc{{Site: 2, Lo: 1, Hi: 1000}, {Site: 3, Lo: 1001, Hi: 2000}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: packs}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	nw, k1 := c.Net, c.K(1)

	// Open the handles before propagation replicates the files: every
	// handle is then served remotely by the pack that stored the create.
	var open []*fs.File
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/f%d", i)
		writeFile(t, k1, path, []byte("payload"))
		f, err := k1.Open(cred(), path, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, f)
	}
	// A second handle on one file: only the registration serial can
	// order the two.
	f, err := k1.Open(cred(), "/f0", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	open = append(open, f)

	// Replicate so site 3 holds the same versions, then lose the
	// serving site.
	settle(t, c)
	var servedBy2 int
	for _, f := range open {
		if f.SS() == 2 {
			servedBy2++
		}
	}
	if servedBy2 < 2 {
		t.Fatalf("only %d handles served by site 2; the schedule assertion needs several failovers", servedBy2)
	}
	nw.PartitionGroups([]fs.SiteID{1, 3}, []fs.SiteID{2})

	var sched []string
	nw.SetTrace(func(from, to netsim.SiteID, method string) {
		sched = append(sched, fmt.Sprintf("%d->%d %s", from, to, method))
	})
	rep := k1.CleanupAfterPartitionChange([]fs.SiteID{1, 3})
	nw.SetTrace(nil)
	if rep.ReadOpensReopened < 2 {
		t.Fatalf("cleanup reopened %d read handles, want >= 2: %+v", rep.ReadOpensReopened, rep)
	}
	for _, f := range open {
		f.Close() //nolint:errcheck
	}
	return sched
}

// TestPartitionCleanupScheduleDeterministic is the double-run check:
// the same cluster history must yield the same cleanup wire schedule,
// message for message. Before openFiles iteration was ordered this
// flaked with the map hash seed.
func TestPartitionCleanupScheduleDeterministic(t *testing.T) {
	a := runPartitionCleanupSchedule(t)
	b := runPartitionCleanupSchedule(t)
	if len(a) == 0 {
		t.Fatal("cleanup produced no wire sends; the schedule assertion is vacuous")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("cleanup wire schedules differ across identical runs:\nrun 1:\n  %s\nrun 2:\n  %s",
			strings.Join(a, "\n  "), strings.Join(b, "\n  "))
	}
}

// TestCommitPageListSorted pins the io.go side of the same property:
// the dirty-page list riding the commit notifications is sorted, not
// map-ordered.
func TestCommitPageListSorted(t *testing.T) {
	c := newCluster(t, 2)
	f, err := c.K(1).Create(cred(), "/big", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty several pages in a scattered order.
	for _, pn := range []int{4, 0, 2, 3, 1} {
		if _, err := f.WriteAt([]byte("x"), int64(pn)*storage.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	// The committed copy propagated page-complete to site 2; a garbled
	// page list would have dropped or duplicated pulls.
	got := readFile(t, c.K(2), "/big")
	if len(got) != 4*storage.PageSize+1 {
		t.Fatalf("replica length %d, want %d", len(got), 4*storage.PageSize+1)
	}
}
