package cluster_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

type sites = []cluster.SiteID

// viewsDisagree reports, for the first up site whose views differ, its
// kernel's partition, its topology manager's, and the up sites it can
// reach; "" when every up site's three agree.
func viewsDisagree(c *cluster.Cluster) string {
	for _, s := range c.UpSites() {
		var reach sites
		for _, x := range c.UpSites() {
			if c.Net.Connected(s, x) {
				reach = append(reach, x)
			}
		}
		st := c.Site(s)
		fsView, topoView := st.FS.Partition(), st.Topo.Partition()
		if !slices.Equal(fsView, reach) || !slices.Equal(topoView, reach) {
			return fmt.Sprintf("site %d: kernel %v, topology %v, reachable %v", s, fsView, topoView, reach)
		}
	}
	return ""
}

// TestMembershipViewsAgree drives every membership call, alone and in
// the orders that used to strand a view, and checks after each call that
// every up site's kernel and topology manager hold the same partition:
// exactly the up sites it can reach.
func TestMembershipViewsAgree(t *testing.T) {
	type step struct {
		name string
		do   func(c *cluster.Cluster) error
	}
	partition := func(groups ...sites) step {
		return step{fmt.Sprintf("Partition%v", groups), func(c *cluster.Cluster) error { c.Partition(groups...); return nil }}
	}
	crash := func(s cluster.SiteID) step {
		return step{fmt.Sprintf("Crash(%d)", s), func(c *cluster.Cluster) error { c.Crash(s); return nil }}
	}
	restart := func(s cluster.SiteID) step {
		return step{fmt.Sprintf("Restart(%d)", s), func(c *cluster.Cluster) error { _, err := c.Restart(s); return err }}
	}
	heal := step{"Heal", func(c *cluster.Cluster) error { return c.Heal() }}
	merge := step{"Merge", func(c *cluster.Cluster) error { _, err := c.Merge(); return err }}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"partition 2|1", []step{partition(sites{1, 2}, sites{3})}},
		{"partition 1|1|1", []step{partition(sites{1}, sites{2}, sites{3})}},
		{"partition unsorted group", []step{partition(sites{3, 1}, sites{2})}},
		{"partition a group whose first member is down", []step{crash(1), partition(sites{1, 2}, sites{3})}},
		{"crash the whole network's member", []step{crash(2)}},
		{"crash while partitioned", []step{partition(sites{1}, sites{2, 3}), crash(3)}},
		{"crash a partition's lowest member", []step{partition(sites{1}, sites{2, 3}), crash(2)}},
		{"heal", []step{partition(sites{1}, sites{2, 3}), heal}},
		{"merge", []step{partition(sites{1}, sites{2}, sites{3}), merge}},
		{"restart", []step{crash(2), restart(2)}},
		{"restart while partitioned", []step{partition(sites{1}, sites{2, 3}), crash(3), restart(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Simple(3)
			defer c.Close()
			for _, st := range tc.steps {
				if err := st.do(c); err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if d := viewsDisagree(c); d != "" {
					t.Fatalf("after %s: %s", st.name, d)
				}
			}
		})
	}
}

// TestBootViewsAgree: a site that stores no pack is in every view from
// boot on, its own and every other site's, as in every topology
// manager's.
func TestBootViewsAgree(t *testing.T) {
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: cluster.Packs(sites{1, 2})}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.New(cfg, cluster.Options{Sites: []cluster.SiteSpec{{ID: 1}, {ID: 2}, {ID: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if d := viewsDisagree(c); d != "" {
		t.Fatalf("at boot: %s", d)
	}
}

// TestCrashWhilePartitionedFreesWriterSlot crashes a site that holds a
// modify open while the network is partitioned: the crash is announced
// in the site's own partition, so the survivor there frees the writer
// slot, and the other partition keeps its view.
func TestCrashWhilePartitionedFreesWriterSlot(t *testing.T) {
	c := cluster.Simple(3)
	defer c.Close()
	cred := fs.DefaultCred("u")
	f, err := c.K(1).Create(cred, "/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("base")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	c.Partition(sites{1}, sites{2, 3})
	if _, err := c.K(3).Open(cred, "/f", fs.ModeModify); err != nil {
		t.Fatal(err)
	}
	c.Crash(3)

	w, err := c.K(2).Open(cred, "/f", fs.ModeModify)
	if errors.Is(err, fs.ErrBusy) {
		t.Fatalf("site 2's modify open after site 3 crashed: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for s, want := range map[cluster.SiteID]sites{1: {1}, 2: {2}} {
		if got := c.K(s).Partition(); !slices.Equal(got, want) {
			t.Errorf("site %d's kernel view is %v, want %v", s, got, want)
		}
	}
}
