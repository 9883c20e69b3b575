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
	"slices"
	"strings"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// runPartitionCleanupSchedule builds a fresh cluster whose packless
// site 1 holds a spread of remote read handles served by site 2, drops
// site 2 from the partition, and returns the wire schedule site 1's
// cleanup produced while failing the handles over to site 3: every
// request and reply point, in order. Every failover is a `1->3 fs.open`,
// so each point also lists the handles failed over before it (by index
// in open order): the schedule shows the order, not only the count. It returns that order too, and want, the
// order cleanup promises: by file, then by registration serial (the
// order the test opened its handles in).
func runPartitionCleanupSchedule(t *testing.T) (sched []string, order, want []int) {
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
	for i, f := range open {
		if f.SS() == 2 {
			want = append(want, i)
		}
	}
	if len(want) < 2 {
		t.Fatalf("only %d handles served by site 2; the schedule assertion needs several failovers", len(want))
	}
	slices.SortStableFunc(want, func(a, b int) int { return open[a].ID().Compare(open[b].ID()) })
	nw.PartitionGroups([]fs.SiteID{1, 3}, []fs.SiteID{2})

	// A handle's SS changes when its reopen's reply arrives, so the
	// handles that moved since the last point are the ones failed over
	// in between.
	moved := make([]bool, len(open))
	noteMoved := func() {
		for _, i := range want {
			if !moved[i] && open[i].SS() != 2 {
				moved[i] = true
				order = append(order, i)
			}
		}
	}
	nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
		noteMoved()
		sched = append(sched, fmt.Sprintf("%+v after %v", p, order))
		return netsim.FaultNone
	})
	k1.CleanupAfterPartitionChange([]fs.SiteID{1, 3})
	nw.SetObserver(nil)
	noteMoved()
	if len(order) < 2 {
		t.Fatalf("cleanup reopened %d read handles, want >= 2: %v", len(order), order)
	}
	for _, f := range open {
		f.Close() //nolint:errcheck
	}
	return sched, order, want
}

// TestPartitionCleanupScheduleDeterministic is the double-run check:
// the same cluster history must yield the same cleanup wire schedule,
// message for message, with the handles failed over in (file, serial)
// order. Before openFiles iteration was ordered this flaked with the
// map hash seed.
func TestPartitionCleanupScheduleDeterministic(t *testing.T) {
	a, got, want := runPartitionCleanupSchedule(t)
	b, _, _ := runPartitionCleanupSchedule(t)
	if len(a) == 0 {
		t.Fatal("cleanup produced no wire sends; the schedule assertion is vacuous")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("cleanup failed handles over in order %v, want %v (file, then registration serial):\n  %s",
			got, want, strings.Join(a, "\n  "))
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
