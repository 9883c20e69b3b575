package topology

import (
	"sync"
	"testing"

	"repro/internal/netsim"
)

func TestConcurrentPartitionProtocolsConverge(t *testing.T) {
	t.Parallel()
	// Several sites run the protocol simultaneously; the site tables
	// still converge to the same clique.
	tn := newNet(t, 6)
	tn.nw.PartitionGroups([]SiteID{1, 2, 3}, []SiteID{4, 5, 6})
	var wg sync.WaitGroup
	for _, s := range []SiteID{1, 2, 3} {
		wg.Add(1)
		go func(s SiteID) {
			defer wg.Done()
			tn.mgrs[s].RunPartitionProtocol()
		}(s)
	}
	wg.Wait()
	// All of {1,2,3} agree after the dust settles (re-run once from the
	// lowest site to normalize any interleaving).
	tn.mgrs[1].RunPartitionProtocol()
	for _, s := range []SiteID{1, 2, 3} {
		if !equalSets(tn.mgrs[s].Partition(), []SiteID{1, 2, 3}) {
			t.Fatalf("site %d partition = %v", s, tn.mgrs[s].Partition())
		}
	}
}

func TestMergeAfterCrashAndRestart(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 4)
	tn.nw.Crash(3)
	tn.mgrs[1].RunPartitionProtocol()
	if !equalSets(tn.mgrs[1].Partition(), []SiteID{1, 2, 4}) {
		t.Fatalf("after crash: %v", tn.mgrs[1].Partition())
	}
	tn.nw.Restart(3)
	// The restarted site believes only in itself until merged.
	p, err := tn.mgrs[3].RunMergeProtocol()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(p, []SiteID{1, 2, 3, 4}) {
		t.Fatalf("merge from restarted site = %v", p)
	}
	tn.assertConverged(t, map[SiteID][]SiteID{
		1: {1, 2, 3, 4}, 2: {1, 2, 3, 4}, 3: {1, 2, 3, 4}, 4: {1, 2, 3, 4},
	})
}

func TestPollMovesFollowerIntoPartitionStage(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 2)
	if _, err := tn.mgrs[2].handlePoll(1, nil); err != nil {
		t.Fatal(err)
	}
	st, active := tn.mgrs[2].Stage()
	if st != StagePartition || active != 1 {
		t.Fatalf("stage=%v active=%d", st, active)
	}
	// Announce returns it to normal.
	tn.mgrs[1].RunPartitionProtocol()
	st, _ = tn.mgrs[2].Stage()
	if st != StageNormal {
		t.Fatalf("stage after announce = %v", st)
	}
}

func TestAnnounceOlderGenerationStillInstallsNewSet(t *testing.T) {
	t.Parallel()
	// install() accepts a different set even at the same generation —
	// what matters is set content; generations only dedupe identical
	// announcements.
	tn := newNet(t, 3)
	m := tn.mgrs[1]
	m.install([]SiteID{1, 2}, 5)
	if got := m.Generation(); got != 5 {
		t.Fatalf("gen = %d", got)
	}
	m.install([]SiteID{1, 2}, 3) // same set, older gen: no-op
	if !equalSets(m.Partition(), []SiteID{1, 2}) {
		t.Fatalf("partition = %v", m.Partition())
	}
	if got := m.Generation(); got != 5 {
		t.Fatalf("gen after stale dup = %d", got)
	}
}

func TestLinkDownUpdatesBeliefWithoutProtocol(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 3)
	tn.nw.SetLink(1, 3, false)
	if contains(tn.mgrs[1].Partition(), 3) {
		t.Fatalf("site 1 still believes 3 up: %v", tn.mgrs[1].Partition())
	}
	if contains(tn.mgrs[3].Partition(), 1) {
		t.Fatalf("site 3 still believes 1 up: %v", tn.mgrs[3].Partition())
	}
	// Site 2 is unaffected.
	if !equalSets(tn.mgrs[2].Partition(), []SiteID{1, 2, 3}) {
		t.Fatalf("site 2 belief: %v", tn.mgrs[2].Partition())
	}
}

// TestPollCrashesPolledSite: a fault crashes site 2 as it answers the
// poll, so site 1's link-down callback runs inside the Call its own
// protocol run made (protoMu held, mu not). The run must come back, and
// with the clique that is left.
func TestPollCrashesPolledSite(t *testing.T) {
	t.Parallel()
	tn := newNet(t, 3)
	tn.nw.EnableFaults(netsim.FaultConfig{
		Points: []netsim.FaultPoint{{From: 1, To: 2, Method: mPoll, Action: netsim.FaultCrashBeforeReply}},
	})
	if p := tn.mgrs[1].RunPartitionProtocol(); !equalSets(p, []SiteID{1, 3}) {
		t.Fatalf("announced %v, want [1 3]", p)
	}
	tn.assertConverged(t, map[SiteID][]SiteID{1: {1, 3}, 3: {1, 3}})
}

func TestSeventeenSiteChurn(t *testing.T) {
	t.Parallel()
	// The paper's production configuration, through repeated random
	// splits and merges.
	tn := newNet(t, 17)
	splits := [][2][]SiteID{}
	for cut := 3; cut <= 14; cut += 4 {
		var a, b []SiteID
		for i := 1; i <= 17; i++ {
			if i <= cut {
				a = append(a, SiteID(i))
			} else {
				b = append(b, SiteID(i))
			}
		}
		splits = append(splits, [2][]SiteID{a, b})
	}
	for _, sp := range splits {
		tn.nw.PartitionGroups(sp[0], sp[1])
		tn.mgrs[sp[0][0]].RunPartitionProtocol()
		tn.mgrs[sp[1][0]].RunPartitionProtocol()
		for _, s := range sp[0] {
			if !equalSets(tn.mgrs[s].Partition(), sortedCopy(sp[0])) {
				t.Fatalf("split %v: site %d has %v", sp[0], s, tn.mgrs[s].Partition())
			}
		}
		tn.nw.HealAll()
		if _, err := tn.mgrs[1].RunMergeProtocol(); err != nil {
			t.Fatal(err)
		}
		var all []SiteID
		for i := 1; i <= 17; i++ {
			all = append(all, SiteID(i))
		}
		for s, m := range tn.mgrs {
			if !equalSets(m.Partition(), all) {
				t.Fatalf("after merge site %d has %v", s, m.Partition())
			}
		}
	}
}

func newNetBench(b *testing.B, n int) *testNetB {
	nw := netsim.New(netsim.DefaultCosts())
	b.Cleanup(nw.Close)
	tb := &testNetB{nw: nw, mgrs: make(map[SiteID]*Manager)}
	var all []SiteID
	for i := 1; i <= n; i++ {
		all = append(all, SiteID(i))
	}
	for _, s := range all {
		tb.mgrs[s] = New(nw.AddSite(s), all)
	}
	return tb
}

type testNetB struct {
	nw   *netsim.Network
	mgrs map[SiteID]*Manager
}

func BenchmarkPartitionProtocol17(b *testing.B) {
	tb := newNetBench(b, 17)
	for i := 0; i < b.N; i++ {
		tb.mgrs[1].RunPartitionProtocol()
	}
}

func BenchmarkMergeProtocol17(b *testing.B) {
	tb := newNetBench(b, 17)
	for i := 0; i < b.N; i++ {
		if _, err := tb.mgrs[1].RunMergeProtocol(); err != nil {
			b.Fatal(err)
		}
	}
}
