package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func twoSites(t *testing.T) (*Network, *Node, *Node) {
	t.Helper()
	nw := New(DefaultCosts())
	t.Cleanup(nw.Close)
	a := nw.AddSite(1)
	b := nw.AddSite(2)
	return nw, a, b
}

func TestCallRoundTrip(t *testing.T) {
	t.Parallel()
	_, a, b := twoSites(t)
	b.Handle("echo", func(from SiteID, p any) (any, error) {
		if from != 1 {
			t.Errorf("from = %d, want 1", from)
		}
		return p.(string) + "!", nil
	})
	v, err := a.Call(2, "echo", "hi")
	if err != nil {
		t.Fatal(err)
	}
	if v != "hi!" {
		t.Fatalf("got %v", v)
	}
}

func TestCallCountsTwoMessages(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	before := nw.Stats()
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatal(err)
	}
	d := nw.Stats().Sub(before)
	if d.Msgs != 2 {
		t.Fatalf("Call produced %d messages, want 2 (request+response)", d.Msgs)
	}
	if d.ByMethod["op"] != 2 {
		t.Fatalf("ByMethod[op] = %d, want 2", d.ByMethod["op"])
	}
}

func TestCastCountsOneMessage(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	got := make(chan string, 1)
	b.Handle("note", func(_ SiteID, p any) (any, error) {
		got <- p.(string)
		return nil, nil
	})
	before := nw.Stats()
	if err := a.Cast(2, "note", "page"); err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != "page" {
			t.Fatalf("payload = %q", s)
		}
	case <-time.After(time.Second):
		t.Fatal("cast not delivered")
	}
	d := nw.Stats().Sub(before)
	if d.Msgs != 1 {
		t.Fatalf("Cast produced %d messages, want 1", d.Msgs)
	}
}

func TestLocalCallZeroMessages(t *testing.T) {
	t.Parallel()
	nw, a, _ := twoSites(t)
	a.Handle("op", func(SiteID, any) (any, error) { return 7, nil })
	before := nw.Stats()
	v, err := a.Call(1, "op", nil)
	if err != nil || v != 7 {
		t.Fatalf("v=%v err=%v", v, err)
	}
	d := nw.Stats().Sub(before)
	if d.Msgs != 0 {
		t.Fatalf("local call produced %d messages, want 0", d.Msgs)
	}
	if d.CPUUs != nw.Cost().LocalCall {
		t.Fatalf("local call CPU = %d, want %d", d.CPUUs, nw.Cost().LocalCall)
	}
}

func TestNestedRemoteService(t *testing.T) {
	t.Parallel()
	// US -> CSS -> SS nesting as in the open protocol (Figure 2).
	nw := New(DefaultCosts())
	defer nw.Close()
	us := nw.AddSite(1)
	css := nw.AddSite(2)
	ss := nw.AddSite(3)
	ss.Handle("storage", func(SiteID, any) (any, error) { return "data", nil })
	css.Handle("open", func(SiteID, any) (any, error) {
		return css.Call(3, "storage", nil)
	})
	before := nw.Stats()
	v, err := us.Call(2, "open", nil)
	if err != nil || v != "data" {
		t.Fatalf("v=%v err=%v", v, err)
	}
	if d := nw.Stats().Sub(before); d.Msgs != 4 {
		t.Fatalf("general open flow = %d messages, want 4", d.Msgs)
	}
}

func TestUnreachableAfterPartition(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	nw.PartitionGroups([]SiteID{1}, []SiteID{2})
	_, err := a.Call(2, "op", nil)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	nw.HealAll()
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestInFlightCallFailsOnLinkBreak(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	started := make(chan struct{})
	release := make(chan struct{})
	b.Handle("slow", func(SiteID, any) (any, error) {
		close(started)
		<-release
		return "late", nil
	})
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(2, "slow", nil)
		errc <- err
	}()
	<-started
	nw.SetLink(1, 2, false)
	close(release) // the call fails when its handler returns, not before
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCircuitClosed) {
			t.Fatalf("err = %v, want ErrCircuitClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call did not fail after circuit break")
	}
}

func TestInFlightCallFailsOnServerCrash(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	started := make(chan struct{})
	release := make(chan struct{})
	b.Handle("slow", func(SiteID, any) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	errc := make(chan error, 1)
	go func() {
		_, err := a.Call(2, "slow", nil)
		errc <- err
	}()
	<-started
	nw.Crash(2)
	close(release) // the call fails when its handler returns, not before
	select {
	case err := <-errc:
		if !errors.Is(err, ErrCircuitClosed) {
			t.Fatalf("err = %v, want ErrCircuitClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("call did not fail after crash")
	}
	if _, err := a.Call(2, "slow", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to crashed site = %v, want ErrUnreachable", err)
	}
}

func TestCrashRunsCallbackAndRestartRejoins(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var crashed, restarted bool
	var mu sync.Mutex
	b.OnCrash(func() { mu.Lock(); crashed = true; mu.Unlock() })
	b.OnRestart(func() { mu.Lock(); restarted = true; mu.Unlock() })
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	nw.Crash(2)
	mu.Lock()
	if !crashed {
		t.Fatal("OnCrash not run")
	}
	mu.Unlock()
	nw.Restart(2)
	mu.Lock()
	if !restarted {
		t.Fatal("OnRestart not run")
	}
	mu.Unlock()
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestLinkDownNotification(t *testing.T) {
	t.Parallel()
	nw, a, _ := twoSites(t)
	var told []SiteID // no lock: the callback runs on this goroutine
	a.OnLinkDown(func(peer SiteID) { told = append(told, peer) })
	nw.SetLink(1, 2, false)
	if len(told) != 1 || told[0] != 2 {
		t.Fatalf("when SetLink returned site 1 had been told of %v, want [2]", told)
	}
	// Only a closing circuit notifies: down again, and up, do not.
	nw.SetLink(1, 2, false)
	nw.SetLink(1, 2, true)
	if len(told) != 1 {
		t.Fatalf("told of %v, want one notification", told)
	}
}

func TestNoHandler(t *testing.T) {
	t.Parallel()
	_, a, _ := twoSites(t)
	_, err := a.Call(2, "nope", nil)
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestCastOrderPreserved(t *testing.T) {
	t.Parallel()
	_, a, b := twoSites(t)
	const n = 100
	got := make([]int, 0, n)
	done := make(chan struct{})
	b.Handle("seq", func(_ SiteID, p any) (any, error) {
		got = append(got, p.(int)) // casts are serviced inline by the dispatcher: no race
		if len(got) == n {
			close(done)
		}
		return nil, nil
	})
	for i := 0; i < n; i++ {
		if err := a.Cast(2, "seq", i); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %d", i, v)
		}
	}
}

func TestCastBeforeCallOrdering(t *testing.T) {
	t.Parallel()
	// A Cast followed by a Call from the same peer must be serviced in
	// order: the write-then-close sequence of §2.3.5 depends on it.
	_, a, b := twoSites(t)
	var mu sync.Mutex
	var log []string
	b.Handle("write", func(SiteID, any) (any, error) {
		mu.Lock()
		log = append(log, "write")
		mu.Unlock()
		return nil, nil
	})
	b.Handle("close", func(SiteID, any) (any, error) {
		mu.Lock()
		log = append(log, "close")
		mu.Unlock()
		return nil, nil
	})
	for i := 0; i < 50; i++ {
		mu.Lock()
		log = log[:0]
		mu.Unlock()
		if err := a.Cast(2, "write", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Call(2, "close", nil); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(log) != 2 || log[0] != "write" || log[1] != "close" {
			t.Fatalf("iteration %d: order %v", i, log)
		}
		mu.Unlock()
	}
}

func TestPartitionGroupsIsolatesUnmentioned(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	defer nw.Close()
	for i := 1; i <= 4; i++ {
		nw.AddSite(SiteID(i))
	}
	nw.PartitionGroups([]SiteID{1, 2}, []SiteID{3})
	cases := []struct {
		a, b SiteID
		want bool
	}{
		{1, 2, true}, {1, 3, false}, {1, 4, false}, {3, 4, false}, {2, 3, false},
	}
	for _, c := range cases {
		if got := nw.Connected(c.a, c.b); got != c.want {
			t.Errorf("Connected(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPropertyPartitionGroupsTransitive(t *testing.T) {
	t.Parallel()
	// Within any group connectivity is an equivalence relation.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nw := New(DefaultCosts())
		defer nw.Close()
		const n = 8
		for i := 1; i <= n; i++ {
			nw.AddSite(SiteID(i))
		}
		var g1, g2 []SiteID
		for i := 1; i <= n; i++ {
			switch r.Intn(3) {
			case 0:
				g1 = append(g1, SiteID(i))
			case 1:
				g2 = append(g2, SiteID(i))
			}
		}
		nw.PartitionGroups(g1, g2)
		for a := 1; a <= n; a++ {
			for b := 1; b <= n; b++ {
				for c := 1; c <= n; c++ {
					if nw.Connected(SiteID(a), SiteID(b)) && nw.Connected(SiteID(b), SiteID(c)) &&
						!nw.Connected(SiteID(a), SiteID(c)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCallsStress(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	defer nw.Close()
	const n = 6
	nodes := make([]*Node, n+1)
	for i := 1; i <= n; i++ {
		nodes[i] = nw.AddSite(SiteID(i))
		nodes[i].Handle("add", func(_ SiteID, p any) (any, error) {
			return p.(int) + 1, nil
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 300)
	for w := 0; w < 50; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := nodes[1+w%n]
			dst := SiteID(1 + (w+1)%n)
			for i := 0; i < 20; i++ {
				v, err := src.Call(dst, "add", i)
				if err != nil {
					errs <- err
					return
				}
				if v != i+1 {
					errs <- fmt.Errorf("got %v want %d", v, i+1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDuplicateSitePanics(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	defer nw.Close()
	nw.AddSite(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate site")
		}
	}()
	nw.AddSite(1)
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestByteAccountingUsesSizer(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	before := nw.Stats()
	if _, err := a.Call(2, "op", sized{4096}); err != nil {
		t.Fatal(err)
	}
	d := nw.Stats().Sub(before)
	if d.Bytes < 4096 {
		t.Fatalf("bytes = %d, want >= 4096", d.Bytes)
	}
}
