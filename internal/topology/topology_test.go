package topology

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

type testNet struct {
	nw   *netsim.Network
	mgrs map[SiteID]*Manager
	all  []SiteID
}

func newNet(t *testing.T, n int) *testNet {
	t.Helper()
	nw := netsim.New(netsim.DefaultCosts())
	t.Cleanup(nw.Close)
	tn := &testNet{nw: nw, mgrs: make(map[SiteID]*Manager)}
	for i := 1; i <= n; i++ {
		tn.all = append(tn.all, SiteID(i))
	}
	for _, s := range tn.all {
		tn.mgrs[s] = New(nw.AddSite(s), tn.all)
	}
	return tn
}

func (tn *testNet) assertConverged(t *testing.T, want map[SiteID][]SiteID) {
	t.Helper()
	for s, p := range want {
		got := tn.mgrs[s].Partition()
		if !slices.Equal(got, sortedCopy(p)) {
			t.Errorf("site %d partition = %v, want %v", s, got, p)
		}
	}
}

func TestPartitionProtocolDetectsSplit(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 5)
	tn.nw.PartitionGroups([]SiteID{1, 2, 3}, []SiteID{4, 5})

	p := tn.mgrs[1].RunPartitionProtocol()
	if !slices.Equal(p, []SiteID{1, 2, 3}) {
		t.Fatalf("partition = %v, want [1 2 3]", p)
	}
	p = tn.mgrs[4].RunPartitionProtocol()
	if !slices.Equal(p, []SiteID{4, 5}) {
		t.Fatalf("partition = %v, want [4 5]", p)
	}
	tn.assertConverged(t, map[SiteID][]SiteID{
		1: {1, 2, 3}, 2: {1, 2, 3}, 3: {1, 2, 3},
		4: {4, 5}, 5: {4, 5},
	})
}

func TestPartitionProtocolSingleSite(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 3)
	tn.nw.PartitionGroups([]SiteID{1}, []SiteID{2, 3})
	p := tn.mgrs[1].RunPartitionProtocol()
	if !slices.Equal(p, []SiteID{1}) {
		t.Fatalf("partition = %v, want [1]", p)
	}
}

func TestPartitionProtocolAfterCrash(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 4)
	tn.nw.Crash(3)
	p := tn.mgrs[1].RunPartitionProtocol()
	if !slices.Equal(p, []SiteID{1, 2, 4}) {
		t.Fatalf("partition = %v, want [1 2 4]", p)
	}
	tn.assertConverged(t, map[SiteID][]SiteID{
		1: {1, 2, 4}, 2: {1, 2, 4}, 4: {1, 2, 4},
	})
}

func TestMergeProtocolJoinsPartitions(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 5)
	tn.nw.PartitionGroups([]SiteID{1, 2}, []SiteID{3, 4, 5})
	tn.mgrs[1].RunPartitionProtocol()
	tn.mgrs[3].RunPartitionProtocol()

	// Heal the wire and merge.
	tn.nw.HealAll()
	p, err := tn.mgrs[1].RunMergeProtocol()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []SiteID{1, 2, 3, 4, 5}) {
		t.Fatalf("merged partition = %v", p)
	}
	tn.assertConverged(t, map[SiteID][]SiteID{
		1: {1, 2, 3, 4, 5}, 2: {1, 2, 3, 4, 5}, 3: {1, 2, 3, 4, 5},
		4: {1, 2, 3, 4, 5}, 5: {1, 2, 3, 4, 5},
	})
}

func TestMergeSkipsDownSites(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 4)
	tn.nw.Crash(4)
	p, err := tn.mgrs[2].RunMergeProtocol()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []SiteID{1, 2, 3}) {
		t.Fatalf("merged partition = %v, want [1 2 3]", p)
	}
}

func TestMergeArbitrationLowerSiteWins(t *testing.T) {
	t.Parallel()
	// When two sites try to merge concurrently, the lower-numbered one
	// proceeds; the higher is declined.
	tn := newNet(t, 3)
	// Site 1 is mid-merge (simulate by setting its stage).
	tn.mgrs[1].mu.Lock()
	tn.mgrs[1].stage = StageMerge
	tn.mgrs[1].active = 1
	tn.mgrs[1].mu.Unlock()

	_, err := tn.mgrs[3].RunMergeProtocol()
	if !errors.Is(err, ErrDeclined) {
		t.Fatalf("higher-numbered merge: err = %v, want ErrDeclined", err)
	}
	// The lower-numbered site's merge succeeds and re-absorbs site 3.
	p, err := tn.mgrs[1].RunMergeProtocol()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []SiteID{1, 2, 3}) {
		t.Fatalf("partition = %v", p)
	}
}

func TestMergeArbitrationYieldsToLowerInitiator(t *testing.T) {
	t.Parallel()
	// A merging active site polled by a LOWER-numbered initiator halts
	// its own merge and follows.
	tn := newNet(t, 3)
	tn.mgrs[3].mu.Lock()
	tn.mgrs[3].stage = StageMerge
	tn.mgrs[3].active = 3
	tn.mgrs[3].mu.Unlock()

	p, err := tn.mgrs[1].RunMergeProtocol()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p, []SiteID{1, 2, 3}) {
		t.Fatalf("partition = %v", p)
	}
	st, active := tn.mgrs[3].Stage()
	if st != StageNormal || active != 0 {
		t.Fatalf("site 3 stage %v active %d after install", st, active)
	}
}

func TestOnChangeCallbackFires(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 3)
	var mu sync.Mutex
	calls := make(map[SiteID][][]SiteID)
	for s, m := range tn.mgrs {
		s := s
		m.OnChange(func(p []SiteID) {
			mu.Lock()
			calls[s] = append(calls[s], p)
			mu.Unlock()
		})
	}
	tn.nw.PartitionGroups([]SiteID{1, 2}, []SiteID{3})
	tn.mgrs[1].RunPartitionProtocol()
	mu.Lock()
	defer mu.Unlock()
	if len(calls[1]) == 0 || len(calls[2]) == 0 {
		t.Fatalf("callbacks: %v", calls)
	}
	last := calls[1][len(calls[1])-1]
	if !slices.Equal(last, []SiteID{1, 2}) {
		t.Fatalf("site 1 last change = %v", last)
	}
}

func TestCheckActiveRestartsOnActiveFailure(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 3)
	// Site 2 is passively following site 3 in a partition protocol.
	tn.mgrs[2].mu.Lock()
	tn.mgrs[2].stage = StagePartition
	tn.mgrs[2].active = 3
	tn.mgrs[2].mu.Unlock()
	tn.nw.Crash(3)

	if !tn.mgrs[2].CheckActive() {
		t.Fatal("CheckActive should have restarted the protocol")
	}
	p := tn.mgrs[2].Partition()
	if !slices.Equal(p, []SiteID{1, 2}) {
		t.Fatalf("partition after restart = %v, want [1 2]", p)
	}
	st, _ := tn.mgrs[2].Stage()
	if st != StageNormal {
		t.Fatalf("stage = %v, want normal", st)
	}
}

func TestCheckActiveNoRestartWhenHealthy(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 2)
	tn.mgrs[2].mu.Lock()
	tn.mgrs[2].stage = StagePartition
	tn.mgrs[2].active = 1
	tn.mgrs[2].mu.Unlock()
	tn.mgrs[1].mu.Lock()
	tn.mgrs[1].stage = StagePartition
	tn.mgrs[1].active = 1
	tn.mgrs[1].mu.Unlock()
	if tn.mgrs[2].CheckActive() {
		t.Fatal("CheckActive restarted despite healthy active site")
	}
}

func TestGenerationMonotonic(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 3)
	g0 := tn.mgrs[1].Generation()
	tn.nw.PartitionGroups([]SiteID{1, 2}, []SiteID{3})
	tn.mgrs[1].RunPartitionProtocol()
	g1 := tn.mgrs[1].Generation()
	if g1 <= g0 {
		t.Fatalf("generation did not advance: %d -> %d", g0, g1)
	}
	tn.nw.HealAll()
	if _, err := tn.mgrs[1].RunMergeProtocol(); err != nil {
		t.Fatal(err)
	}
	if g2 := tn.mgrs[1].Generation(); g2 <= g1 {
		t.Fatalf("generation did not advance on merge: %d -> %d", g1, g2)
	}
}

func TestRepeatedSplitMergeCycles(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 6)
	for cycle := 0; cycle < 5; cycle++ {
		tn.nw.PartitionGroups([]SiteID{1, 2, 3}, []SiteID{4, 5, 6})
		tn.mgrs[1].RunPartitionProtocol()
		tn.mgrs[4].RunPartitionProtocol()
		tn.assertConverged(t, map[SiteID][]SiteID{1: {1, 2, 3}, 4: {4, 5, 6}})
		tn.nw.HealAll()
		if _, err := tn.mgrs[1].RunMergeProtocol(); err != nil {
			t.Fatal(err)
		}
		tn.assertConverged(t, map[SiteID][]SiteID{
			1: {1, 2, 3, 4, 5, 6}, 6: {1, 2, 3, 4, 5, 6},
		})
	}
}

// Property: for any random transitive grouping, running the partition
// protocol at one site per group converges every site's table to its
// group ("all sites converge on the same answer in a rapid manner").
func TestPropertyPartitionConvergence(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw := netsim.New(netsim.DefaultCosts())
		defer nw.Close()
		const n = 7
		var all []SiteID
		mgrs := make(map[SiteID]*Manager)
		for i := 1; i <= n; i++ {
			all = append(all, SiteID(i))
		}
		for _, s := range all {
			mgrs[s] = New(nw.AddSite(s), all)
		}
		// Random split into up to 3 groups.
		var groups [3][]SiteID
		for _, s := range all {
			g := r.Intn(3)
			groups[g] = append(groups[g], s)
		}
		var nonEmpty [][]SiteID
		for _, g := range groups {
			if len(g) > 0 {
				nonEmpty = append(nonEmpty, g)
			}
		}
		nw.PartitionGroups(nonEmpty...)
		for _, g := range nonEmpty {
			mgrs[g[0]].RunPartitionProtocol()
		}
		for _, g := range nonEmpty {
			want := sortedCopy(g)
			for _, s := range g {
				if !slices.Equal(mgrs[s].Partition(), want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the announced partition is always a clique of the physical
// connectivity (fully-connected subnetwork), even when the underlying
// links are not transitive.
func TestPropertyPartitionIsClique(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw := netsim.New(netsim.DefaultCosts())
		defer nw.Close()
		const n = 6
		var all []SiteID
		mgrs := make(map[SiteID]*Manager)
		for i := 1; i <= n; i++ {
			all = append(all, SiteID(i))
		}
		for _, s := range all {
			mgrs[s] = New(nw.AddSite(s), all)
		}
		// Random, possibly non-transitive link failures.
		for i := 1; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				if r.Intn(3) == 0 {
					nw.SetLink(SiteID(i), SiteID(j), false)
				}
			}
		}
		initiator := SiteID(1 + r.Intn(n))
		p := mgrs[initiator].RunPartitionProtocol()
		for i, a := range p {
			for _, b := range p[i+1:] {
				if !nw.Connected(a, b) {
					return false
				}
			}
		}
		return slices.Contains(p, initiator)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
