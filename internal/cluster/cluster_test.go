package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func TestSimpleConfigShape(t *testing.T) {
	cfg := cluster.SimpleConfig(4)
	d, ok := cfg.FG(1)
	if !ok || len(d.Packs) != 4 {
		t.Fatalf("config: %+v ok=%v", d, ok)
	}
	// Disjoint inode ranges.
	for i := 0; i < 3; i++ {
		if d.Packs[i].Hi >= d.Packs[i+1].Lo {
			t.Fatalf("pack ranges overlap: %+v", d.Packs)
		}
	}
	if fg, ok := cfg.MountAt("/"); !ok || fg != 1 {
		t.Fatalf("mount: %v %v", fg, ok)
	}
}

func TestClusterLifecycle(t *testing.T) {
	c := cluster.Simple(3)
	defer c.Close()
	if len(c.Sites()) != 3 {
		t.Fatalf("sites: %v", c.Sites())
	}
	k := c.K(1)
	f, err := k.Create(fs.DefaultCred("u"), "/x", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := c.Settle(); n == 0 {
		t.Fatal("expected propagation pulls")
	}
	// Partition + heal round trip keeps state coherent.
	c.Partition([]cluster.SiteID{1, 2}, []cluster.SiteID{3})
	if got := c.K(3).Partition(); len(got) != 1 {
		t.Fatalf("site 3 view: %v", got)
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	g, err := c.K(3).Open(fs.DefaultCred("u"), "/x", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	d, err := g.ReadAll()
	if err != nil || string(d) != "y" {
		t.Fatalf("read %q %v", d, err)
	}
}

func TestCrashRestartLifecycle(t *testing.T) {
	c := cluster.Simple(2)
	defer c.Close()
	c.Crash(2)
	if c.Net.Up(2) {
		t.Fatal("site 2 should be down")
	}
	if got := c.K(1).Partition(); len(got) != 1 {
		t.Fatalf("survivor view: %v", got)
	}
	c.Restart(2)
	if got := c.K(1).Partition(); len(got) != 2 {
		t.Fatalf("after restart: %v", got)
	}
}

// settleSchedule writes at two sites of a fresh 3-site cluster and
// returns the wire schedule of the Settle that propagates them.
func settleSchedule(t *testing.T) string {
	t.Helper()
	c := cluster.Simple(3)
	defer c.Close()
	for _, s := range []cluster.SiteID{2, 3} {
		for i := 0; i < 4; i++ {
			f, err := c.K(s).Create(fs.DefaultCred("u"), fmt.Sprintf("/s%d-f%d", s, i), storage.TypeRegular, 0644)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.WriteAll([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sched strings.Builder
	c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
		fmt.Fprintf(&sched, "%+v\n", p)
		return netsim.FaultNone
	})
	c.Settle()
	c.Net.SetObserver(nil)
	return sched.String()
}

// TestSettleScheduleDeterministic is the double-run check for Settle:
// a drain sends, so the order sites are drained in is part of the wire
// schedule and must not depend on Go's map iteration order.
func TestSettleScheduleDeterministic(t *testing.T) {
	first := settleSchedule(t)
	if first == "" {
		t.Fatal("Settle produced no wire sends; the schedule assertion is vacuous")
	}
	for run := 2; run <= 8; run++ {
		if got := settleSchedule(t); got != first {
			t.Fatalf("Settle wire schedules differ across identical runs:\nrun 1:\n%s\nrun %d:\n%s", first, run, got)
		}
	}
}
