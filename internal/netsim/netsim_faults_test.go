package netsim

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestScriptedDropRequestTimesOut(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var served atomic.Int64
	b.Handle("commit", func(SiteID, any) (any, error) {
		served.Add(1)
		return "ok", nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: "commit", Nth: 1, Action: FaultDropRequest}},
	})

	before := nw.Stats()
	clk0 := nw.Clock().NowUs()
	_, err := a.Call(2, "commit", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped request: err = %v, want ErrTimeout", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Fatalf("ErrTimeout must be distinct from ErrUnreachable, got %v", err)
	}
	if served.Load() != 0 {
		t.Fatalf("handler ran %d times for a dropped request", served.Load())
	}
	d := nw.Stats().Sub(before)
	if d.MsgsDropped != 1 || d.CircuitResets != 1 {
		t.Fatalf("MsgsDropped=%d CircuitResets=%d, want 1/1", d.MsgsDropped, d.CircuitResets)
	}
	if d.Msgs != 1 {
		t.Fatalf("a dropped request charges %d messages, want 1 (sent, never answered)", d.Msgs)
	}
	if nw.Clock().NowUs() <= clk0 {
		t.Fatal("timeout did not advance virtual time")
	}
	// The point fired once; the retry goes through.
	if v, err := a.Call(2, "commit", nil); err != nil || v != "ok" {
		t.Fatalf("retry after scripted drop: v=%v err=%v", v, err)
	}
}

func TestDropResponseDedupReturnsCachedOutcome(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var served atomic.Int64
	b.Handle("commit", func(SiteID, any) (any, error) {
		served.Add(1)
		return "applied", nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: "commit", Nth: 1, Action: FaultDropResponse}},
	})

	seq := a.NextSeq()
	_, err := a.CallSeq(2, "commit", nil, seq)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped response: err = %v, want ErrTimeout", err)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (applied before response loss)", served.Load())
	}
	// Retry with the same seq: at-most-once — the cached response comes
	// back and the handler does not run again.
	v, err := a.CallSeq(2, "commit", nil, seq)
	if err != nil || v != "applied" {
		t.Fatalf("retry: v=%v err=%v, want cached 'applied'", v, err)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times after retry, want 1 (dedup)", served.Load())
	}
}

func TestDedupOffReplaysMutation(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var served atomic.Int64
	b.Handle("commit", func(SiteID, any) (any, error) {
		served.Add(1)
		return nil, nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{Method: "commit", Nth: 1, Action: FaultDropResponse}},
	})
	nw.SetDedup(false)

	seq := a.NextSeq()
	if _, err := a.CallSeq(2, "commit", nil, seq); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if _, err := a.CallSeq(2, "commit", nil, seq); err != nil {
		t.Fatal(err)
	}
	if served.Load() != 2 {
		t.Fatalf("with dedup off the retry must re-run the handler: ran %d times, want 2", served.Load())
	}
}

func TestDupRequestDedupAbsorbsDuplicate(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var served atomic.Int64
	b.Handle("mkdir", func(SiteID, any) (any, error) {
		served.Add(1)
		return nil, nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{Method: "mkdir", Nth: 1, Action: FaultDupRequest}},
	})

	before := nw.Stats()
	if _, err := a.CallSeq(2, "mkdir", nil, a.NextSeq()); err != nil {
		t.Fatal(err)
	}
	d := nw.Stats().Sub(before)
	if d.MsgsDuped != 1 {
		t.Fatalf("MsgsDuped = %d, want 1", d.MsgsDuped)
	}
	if d.Msgs != 3 {
		t.Fatalf("duplicated call charged %d messages, want 3 (2 requests + response)", d.Msgs)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (dedup absorbed the duplicate)", served.Load())
	}
}

func TestDupRequestWithoutSeqRunsTwice(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var served atomic.Int64
	b.Handle("read", func(SiteID, any) (any, error) {
		served.Add(1)
		return nil, nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{Method: "read", Nth: 1, Action: FaultDupRequest}},
	})
	if _, err := a.Call(2, "read", nil); err != nil {
		t.Fatal(err)
	}
	if served.Load() != 2 {
		t.Fatalf("seq-less duplicate ran handler %d times, want 2 (idempotent reads are exempt from dedup)", served.Load())
	}
}

// TestDedupWindowContract is what the at-most-once table promises, row by
// row, on raw CallSeq with a handler that replies with how many times it
// has run: site 1 sends request 1, then the next `behind` sequence
// numbers (round-robin over the callees, as a using site spreads its
// opens and closes over several CSSs), then retransmits the oldest. A
// retransmission fewer than dedupWindow behind the newest request the
// callee has seen gets the recorded reply; a full window behind, after a
// crash of the callee, or with dedup off, the handler runs again.
func TestDedupWindowContract(t *testing.T) {
	t.Parallel()
	const (
		noCrash = iota
		crashAfterReply
		crashBeforeReply // FaultCrashBeforeReply on the request itself
	)
	for _, tc := range []struct {
		name     string
		callees  int
		behind   int
		crash    int
		dedupOff bool
		replayed bool
	}{
		{name: "distance 1", callees: 1, behind: 1, replayed: true},
		{name: "distance window-1", callees: 1, behind: dedupWindow - 1, replayed: true},
		{name: "a full window behind", callees: 1, behind: dedupWindow},
		// Alternating, each callee sees every other number: its oldest
		// request is window-2, then a full window, behind its newest.
		{name: "two callees, distance window-2", callees: 2, behind: dedupWindow - 1, replayed: true},
		{name: "two callees, a full window behind", callees: 2, behind: dedupWindow + 1},
		{name: "callee crashed and restarted", callees: 1, behind: 1, crash: crashAfterReply},
		{name: "callee crashed before its reply", callees: 1, behind: 0, crash: crashBeforeReply},
		{name: "dedup off", callees: 1, behind: 1, dedupOff: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			nw := New(DefaultCosts())
			t.Cleanup(nw.Close)
			a := nw.AddSite(1)
			runs := make([]int, tc.callees)
			for i := range runs {
				nw.AddSite(SiteID(2+i)).Handle("op", func(SiteID, any) (any, error) {
					runs[i]++
					return runs[i], nil
				})
			}
			nw.SetDedup(!tc.dedupOff)
			if tc.crash == crashBeforeReply {
				nw.EnableFaults(FaultConfig{
					Points: []FaultPoint{{From: 1, To: 2, Method: "op", Nth: 1, Action: FaultCrashBeforeReply}},
				})
			}

			// Requests 1 .. 1+behind; request 1+i goes to callee i mod
			// callees, so callee c's oldest is 1+c.
			for i := 0; i <= tc.behind; i++ {
				seq := int64(1 + i)
				v, err := a.CallSeq(SiteID(2+i%tc.callees), "op", nil, seq)
				if i == 0 && tc.crash == crashBeforeReply {
					if !errors.Is(err, ErrCircuitClosed) {
						t.Fatalf("request %d: err = %v, want ErrCircuitClosed", seq, err)
					}
					continue
				}
				if want := i/tc.callees + 1; err != nil || v != want {
					t.Fatalf("request %d: v=%v err=%v, want run %d", seq, v, err, want)
				}
			}
			if tc.crash != noCrash {
				nw.Crash(2) // a no-op after FaultCrashBeforeReply
				nw.Restart(2)
			}

			// Retransmit each callee's oldest request.
			for c := 0; c < tc.callees && c <= tc.behind; c++ {
				before := runs[c]
				v, err := a.CallSeq(SiteID(2+c), "op", nil, int64(1+c))
				if err != nil {
					t.Fatalf("retransmission to site %d: %v", 2+c, err)
				}
				switch {
				case tc.replayed && (v != 1 || runs[c] != before):
					t.Fatalf("site %d: retransmission got %v and the handler ran %d more times, want the recorded reply 1 and no run",
						2+c, v, runs[c]-before)
				case !tc.replayed && (v != before+1 || runs[c] != before+1):
					t.Fatalf("site %d: retransmission got %v after %d runs (%d before), want a fresh run",
						2+c, v, runs[c], before)
				}
			}
		})
	}
}

// TestDedupForgetsARequestRunningAtTheCrash: a handler that was running
// when its site crashed leaves nothing a retry after the restart can
// find — not while it is still running, and not when it returns.
func TestDedupForgetsARequestRunningAtTheCrash(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	entered, release := make(chan struct{}), make(chan struct{})
	var runs atomic.Int64
	b.Handle("commit", func(SiteID, any) (any, error) {
		n := runs.Add(1)
		if n == 1 {
			close(entered)
			<-release
		}
		return n, nil
	})
	seq := a.NextSeq()
	first := make(chan error, 1)
	go func() {
		_, err := a.CallSeq(2, "commit", nil, seq)
		first <- err
	}()
	<-entered
	nw.Crash(2)
	nw.Restart(2)

	// The retry neither waits for the pre-crash execution nor replays it.
	if v, err := a.CallSeq(2, "commit", nil, seq); err != nil || v != int64(2) {
		t.Fatalf("retry after restart: v=%v err=%v, want a second run", v, err)
	}
	close(release)
	if err := <-first; !errors.Is(err, ErrCircuitClosed) {
		t.Fatalf("the call across the crash: err = %v, want ErrCircuitClosed", err)
	}
	// The pre-crash execution's outcome went nowhere: what is recorded
	// is the retry's.
	if v, err := a.CallSeq(2, "commit", nil, seq); err != nil || v != int64(2) || runs.Load() != 2 {
		t.Fatalf("retransmission: v=%v err=%v after %d runs, want the retry's recorded 2", v, err, runs.Load())
	}
}

// TestCrashBeforeReplyMidCall is the white-box mid-call crash test: a
// scripted fault point crashes the callee after the request is applied
// but before the response is sent. The caller must get a typed error
// (ErrCircuitClosed — it cannot know whether the operation happened).
func TestCrashBeforeReplyMidCall(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var applied atomic.Int64
	b.Handle("commit", func(SiteID, any) (any, error) {
		applied.Add(1)
		return "ok", nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: "commit", Nth: 1, Action: FaultCrashBeforeReply}},
	})

	_, err := a.Call(2, "commit", nil)
	if !errors.Is(err, ErrCircuitClosed) {
		t.Fatalf("mid-call crash: err = %v, want ErrCircuitClosed", err)
	}
	if applied.Load() != 1 {
		t.Fatalf("operation applied %d times, want 1 (crash is after apply)", applied.Load())
	}
	if nw.Up(2) {
		t.Fatal("callee should be down after FaultCrashBeforeReply")
	}
	// Restarted callee lost its dedup table (volatile state).
	nw.Restart(2)
	b.dedupMu.Lock()
	entries := len(b.dedup)
	b.dedupMu.Unlock()
	if entries != 0 {
		t.Fatalf("dedup table survived a crash: %d caller tables", entries)
	}
}

func TestErrCrashedDistinctFromUnreachable(t *testing.T) {
	t.Parallel()
	nw, a, _ := twoSites(t)
	nw.Crash(2)
	_, err := a.Call(2, "op", nil)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("call to crashed site: err = %v, want ErrCrashed", err)
	}
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("ErrCrashed must wrap ErrUnreachable for existing call sites, got %v", err)
	}
	if err := a.Cast(2, "op", nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("cast to crashed site: err = %v, want ErrCrashed", err)
	}

	nw.Restart(2)
	nw.SetLink(1, 2, false)
	_, err = a.Call(2, "op", nil)
	if !errors.Is(err, ErrUnreachable) || errors.Is(err, ErrCrashed) {
		t.Fatalf("call across cut link: err = %v, want plain ErrUnreachable (not ErrCrashed)", err)
	}
}

func TestCastDropReturnsTimeout(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var served atomic.Int64
	b.Handle("write", func(SiteID, any) (any, error) {
		served.Add(1)
		return nil, nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{Method: "write", Nth: 2, Action: FaultDropRequest}},
	})
	if err := a.Cast(2, "write", nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Cast(2, "write", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("2nd cast: err = %v, want ErrTimeout", err)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", served.Load())
	}
}

func TestProbabilisticFaultsAreDeterministic(t *testing.T) {
	t.Parallel()
	run := func(seed uint64) Snapshot {
		nw := New(DefaultCosts())
		defer nw.Close()
		a := nw.AddSite(1)
		b := nw.AddSite(2)
		b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
		nw.EnableFaults(FaultConfig{
			Seed:  seed,
			Rates: FaultRates{Drop: 0.2, Dup: 0.1, Delay: 0.3, DelayMaxUs: 500},
		})
		for i := 0; i < 200; i++ {
			a.Call(2, "op", nil)                 //nolint:errcheck // fault outcomes are the data
			a.Cast(2, "op", nil)                 //nolint:errcheck
			a.CallSeq(2, "op", nil, a.NextSeq()) //nolint:errcheck
		}
		return nw.Stats()
	}
	s1, s2 := run(42), run(42)
	if s1.MsgsDropped != s2.MsgsDropped || s1.MsgsDuped != s2.MsgsDuped ||
		s1.MsgsDelayed != s2.MsgsDelayed || s1.Msgs != s2.Msgs {
		t.Fatalf("same seed, different faults: %+v vs %+v", s1, s2)
	}
	if s1.MsgsDropped == 0 || s1.MsgsDuped == 0 || s1.MsgsDelayed == 0 {
		t.Fatalf("rates 0.2/0.1/0.3 over 600 sends produced no faults: %+v", s1)
	}
	s3 := run(43)
	if s3.MsgsDropped == s1.MsgsDropped && s3.MsgsDuped == s1.MsgsDuped && s3.MsgsDelayed == s1.MsgsDelayed {
		t.Fatal("different seeds produced identical fault pattern (suspicious)")
	}
}

func TestPerLinkRatesOverrideGlobal(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	t.Cleanup(nw.Close)
	a := nw.AddSite(1)
	b := nw.AddSite(2)
	c := nw.AddSite(3)
	h := func(SiteID, any) (any, error) { return nil, nil }
	b.Handle("op", h)
	c.Handle("op", h)
	// Global loss is total, but the 1->3 link is overridden clean.
	nw.EnableFaults(FaultConfig{
		Seed:  7,
		Rates: FaultRates{Drop: 1},
		Links: map[[2]SiteID]FaultRates{{1, 3}: {}},
	})
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("1->2 should drop: %v", err)
	}
	if _, err := a.Call(3, "op", nil); err != nil {
		t.Fatalf("1->3 is overridden clean: %v", err)
	}
}

func TestDisabledFaultPlaneIsZeroOverhead(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })

	baseline := nw.Stats()
	if _, err := a.CallSeq(2, "op", nil, a.NextSeq()); err != nil {
		t.Fatal(err)
	}
	noPlane := nw.Stats().Sub(baseline)

	// Armed but zero-rate, point-free: message accounting must be
	// bit-identical, and no fault counters move.
	nw.EnableFaults(FaultConfig{Seed: 99})
	before := nw.Stats()
	if _, err := a.CallSeq(2, "op", nil, a.NextSeq()); err != nil {
		t.Fatal(err)
	}
	armed := nw.Stats().Sub(before)
	if armed.Msgs != noPlane.Msgs || armed.Bytes != noPlane.Bytes || armed.ByMethod["op"] != noPlane.ByMethod["op"] {
		t.Fatalf("armed-but-disabled plane changed accounting: %+v vs %+v", armed, noPlane)
	}
	if armed.MsgsDropped != 0 || armed.MsgsDuped != 0 || armed.MsgsDelayed != 0 || armed.CircuitResets != 0 {
		t.Fatalf("disabled plane injected faults: %+v", armed)
	}
}

func TestTeardownCountsCircuitResets(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	b.Handle("slow", func(SiteID, any) (any, error) {
		close(entered)
		<-release
		return nil, nil
	})
	before := nw.Stats()
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(2, "slow", nil)
		done <- err
	}()
	<-entered
	nw.SetLink(1, 2, false)
	close(release) // the call fails when its handler returns, not before
	if err := <-done; !errors.Is(err, ErrCircuitClosed) {
		t.Fatalf("err = %v, want ErrCircuitClosed", err)
	}
	if d := nw.Stats().Sub(before); d.CircuitResets != 1 {
		t.Fatalf("CircuitResets = %d, want 1", d.CircuitResets)
	}
}
