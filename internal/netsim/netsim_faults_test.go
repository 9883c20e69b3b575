package netsim

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
)

// cutAt installs an observer that answers act at the nth point of kind
// carrying method and FaultNone everywhere else.
func cutAt(nw *Network, kind PointKind, method string, nth int, act FaultAction) {
	seen := 0
	nw.SetObserver(func(p Point) FaultAction {
		if p.Kind == kind && p.Method == method {
			if seen++; seen == nth {
				return act
			}
		}
		return FaultNone
	})
}

// crashAt installs an observer that crashes site at the nth point of
// kind carrying method.
func crashAt(nw *Network, kind PointKind, method string, nth int, site SiteID) {
	seen := 0
	nw.SetObserver(func(p Point) FaultAction {
		if p.Kind == kind && p.Method == method {
			if seen++; seen == nth {
				nw.Crash(site)
			}
		}
		return FaultNone
	})
}

// TestObserverContract is what the observer's action, or a crash it
// makes, does to one exchange from site 1 to site 2, one row per kind
// of point and act: the send's error, how many times the handler ran,
// the points seen, and what is charged. A drop costs what a fault-plane
// drop costs: the message sent, one MsgsDropped, one circuit reset and
// the 5,000 µs timeout. A message to a site crashed at its request is
// lost, as a dropped one is; one whose sender crashed went out before
// the site died. A crash at the reply closes the circuit after the
// handler ran.
func TestObserverContract(t *testing.T) {
	t.Parallel()
	const (
		req = "1->2 request"
		rep = "2->1 reply"
	)
	for _, tc := range []struct {
		name                         string
		cast                         bool
		kind                         PointKind
		act                          FaultAction
		crash                        SiteID
		err                          error
		ran                          int
		points                       []string
		msgs, dropped, duped, resets int64
	}{
		{name: "request/drop", kind: PointRequest, act: FaultDropRequest, err: ErrTimeout,
			points: []string{req}, msgs: 1, dropped: 1, resets: 1},
		{name: "request/dup", kind: PointRequest, act: FaultDupRequest, ran: 1,
			points: []string{req, rep}, msgs: 3, duped: 1},
		{name: "reply/drop", kind: PointReply, act: FaultDropResponse, err: ErrTimeout, ran: 1,
			points: []string{req, rep}, msgs: 2, dropped: 1, resets: 1},
		{name: "request/crash callee", kind: PointRequest, crash: 2, err: ErrTimeout,
			points: []string{req}, msgs: 1, dropped: 1, resets: 1},
		{name: "request/crash caller", kind: PointRequest, crash: 1, err: ErrCircuitClosed, ran: 1,
			points: []string{req, rep}, msgs: 2, resets: 1},
		{name: "reply/crash callee", kind: PointReply, crash: 2, err: ErrCircuitClosed, ran: 1,
			points: []string{req, rep}, msgs: 2, resets: 1},
		{name: "reply/crash caller", kind: PointReply, crash: 1, err: ErrCircuitClosed, ran: 1,
			points: []string{req, rep}, msgs: 2, resets: 1},
		{name: "cast/drop", cast: true, kind: PointRequest, act: FaultDropRequest, err: ErrTimeout,
			points: []string{req}, msgs: 1, dropped: 1, resets: 1},
		{name: "cast/dup", cast: true, kind: PointRequest, act: FaultDupRequest, ran: 2,
			points: []string{req}, msgs: 2, duped: 1},
		{name: "cast/crash callee", cast: true, kind: PointRequest, crash: 2, err: ErrTimeout,
			points: []string{req}, msgs: 1, dropped: 1, resets: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			nw, a, b := twoSites(t)
			ran := 0 // no lock: everything runs on this goroutine
			b.Handle("op", func(SiteID, any) (any, error) { ran++; return "ok", nil })
			var points []string
			nw.SetObserver(func(p Point) FaultAction {
				if want := uint64(len(points) + 1); p.Seq != want {
					t.Errorf("point %d has Seq %d", want, p.Seq)
				}
				points = append(points, fmt.Sprintf("%d->%d %s", p.From, p.To, map[PointKind]string{PointRequest: "request", PointReply: "reply"}[p.Kind]))
				if p.Kind != tc.kind {
					return FaultNone
				}
				if tc.crash != 0 {
					nw.Crash(tc.crash)
				}
				return tc.act
			})
			before, clk := nw.Stats(), nw.Clock().NowUs()
			var err error
			if tc.cast {
				err = a.Cast(2, "op", nil)
			} else {
				_, err = a.CallSeq(2, "op", nil, a.NextSeq())
			}
			d := nw.Stats().Sub(before)
			if !errors.Is(err, tc.err) || errors.Is(err, ErrUnreachable) {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
			if ran != tc.ran || !slices.Equal(points, tc.points) {
				t.Errorf("the handler ran %d times and the observer saw %q, want %d and %q", ran, points, tc.ran, tc.points)
			}
			if d.Msgs != tc.msgs || d.MsgsDropped != tc.dropped || d.MsgsDuped != tc.duped || d.CircuitResets != tc.resets {
				t.Errorf("msgs/dropped/duped/resets = %d/%d/%d/%d, want %d/%d/%d/%d",
					d.Msgs, d.MsgsDropped, d.MsgsDuped, d.CircuitResets, tc.msgs, tc.dropped, tc.duped, tc.resets)
			}
			if waited := nw.Clock().NowUs() - clk - d.CPUUs; waited != 5000*tc.dropped {
				t.Errorf("the clock moved %d µs beyond its CPU charge, want %d", waited, 5000*tc.dropped)
			}
		})
	}
}

// TestObserverKeepsTheRollsInStep: an observer's action replaces the
// fault plane's roll for its message, and the roll still runs, so every
// later message rolls as it would have.
func TestObserverKeepsTheRollsInStep(t *testing.T) {
	t.Parallel()
	outcomes := func(observe bool) []bool {
		nw, a, b := twoSites(t)
		b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
		nw.EnableFaults(FaultConfig{Seed: 5, Rates: FaultRates{Drop: 0.3}})
		if observe {
			cutAt(nw, PointRequest, "op", 1, FaultDupRequest)
		}
		var ok []bool
		for i := 0; i < 40; i++ {
			_, err := a.Call(2, "op", nil)
			ok = append(ok, err == nil)
		}
		return ok[1:]
	}
	if plain, observed := outcomes(false), outcomes(true); !slices.Equal(plain, observed) {
		t.Fatalf("the calls after the observed one fared differently:\n%v\n%v", plain, observed)
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
	cutAt(nw, PointReply, "commit", 1, FaultDropResponse)

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
	cutAt(nw, PointReply, "commit", 1, FaultDropResponse)
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
	cutAt(nw, PointRequest, "mkdir", 1, FaultDupRequest)

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
	cutAt(nw, PointRequest, "read", 1, FaultDupRequest)
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
		crashBeforeReply // the observer crashes the callee at the first reply
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
				crashAt(nw, PointReply, "op", 1, 2)
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
				nw.Crash(2) // a no-op after a crash at the reply
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

// TestCrashedSiteIsUnreachable: a call or cast to a crashed site finds
// no circuit, exactly as one across a cut link does.
func TestCrashedSiteIsUnreachable(t *testing.T) {
	t.Parallel()
	nw, a, _ := twoSites(t)
	nw.Crash(2)
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to crashed site: err = %v, want ErrUnreachable", err)
	}
	if err := a.Cast(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cast to crashed site: err = %v, want ErrUnreachable", err)
	}

	nw.Restart(2)
	nw.SetLink(1, 2, false)
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call across cut link: err = %v, want ErrUnreachable", err)
	}
}

// TestTransportErrors pins every error the transport makes, one row per
// place that makes one: its sentinel, the hop it names, its text, and
// whether it is a cut of the caller's own exchange.
func TestTransportErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name     string
		err      func(nw *Network, a *Node) error
		sentinel error
		from, to SiteID
		method   string
		text     string
		cut      bool
	}{
		{"no circuit", func(nw *Network, a *Node) error {
			nw.SetLink(1, 2, false)
			_, err := a.Call(2, "op", nil)
			return err
		}, ErrUnreachable, 1, 2, "op", "netsim: site unreachable: 1 -> 2", true},
		{"lost request", func(nw *Network, a *Node) error {
			cutAt(nw, PointRequest, "op", 1, FaultDropRequest)
			_, err := a.Call(2, "op", nil)
			return err
		}, ErrTimeout, 1, 2, "op", "netsim: timed out (message lost, circuit reset): op 1 -> 2", true},
		{"lost reply", func(nw *Network, a *Node) error {
			cutAt(nw, PointReply, "op", 1, FaultDropResponse)
			_, err := a.Call(2, "op", nil)
			return err
		}, ErrTimeout, 1, 2, "op", "netsim: timed out (message lost, circuit reset): op response 2 -> 1", true},
		{"lost cast", func(nw *Network, a *Node) error {
			cutAt(nw, PointRequest, "op", 1, FaultDropRequest)
			return a.Cast(2, "op", nil)
		}, ErrTimeout, 1, 2, "op", "netsim: timed out (message lost, circuit reset): op 1 -> 2", true},
		{"closed circuit", func(nw *Network, a *Node) error {
			_, err := a.Call(2, "bounce", nil)
			return err
		}, ErrCircuitClosed, 1, 2, "bounce", "netsim: virtual circuit closed", true},
		{"no handler at the callee", func(nw *Network, a *Node) error {
			_, err := a.Call(2, "nope", nil)
			return err
		}, ErrNoHandler, 1, 2, "nope", "netsim: no handler for method: nope at site 2", false},
		{"no handler for a local call", func(nw *Network, a *Node) error {
			_, err := a.Call(1, "nope", nil)
			return err
		}, ErrNoHandler, 1, 1, "nope", "netsim: no handler for method: nope at site 1", false},
		{"no handler for a local cast", func(nw *Network, a *Node) error {
			return a.Cast(1, "nope", nil)
		}, ErrNoHandler, 1, 1, "nope", "netsim: no handler for method: nope at site 1", false},
		{"caller down", func(nw *Network, a *Node) error {
			nw.Crash(1)
			_, err := a.Call(1, "op", nil)
			return err
		}, ErrSiteDown, 1, 1, "op", "netsim: site is down", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw, a, b := twoSites(t)
			b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
			b.Handle("bounce", func(SiteID, any) (any, error) {
				nw.SetLink(1, 2, false)
				nw.SetLink(1, 2, true)
				return nil, nil
			})
			err := tc.err(nw, a)
			var e *Error
			if !errors.Is(err, tc.sentinel) || !errors.As(err, &e) {
				t.Fatalf("err = %v, want an *Error wrapping %v", err, tc.sentinel)
			}
			if e.From != tc.from || e.To != tc.to || e.Method != tc.method {
				t.Errorf("hop = %d -> %d %q, want %d -> %d %q", e.From, e.To, e.Method, tc.from, tc.to, tc.method)
			}
			if err.Error() != tc.text {
				t.Errorf("text = %q, want %q", err.Error(), tc.text)
			}
			if IsCut(err, 1) != tc.cut {
				t.Errorf("IsCut(err, 1) = %v, want %v", !tc.cut, tc.cut)
			}
		})
	}
}

// TestHandlersOnwardCutIsNotItsCallers: site 2's handler calls site 3,
// every transmission of that call is lost, and the handler passes the
// error up wrapped. Site 1 reads a timeout in the chain but no cut of
// its own exchange, which it does not send again; the cut is site 2's.
func TestHandlersOnwardCutIsNotItsCallers(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	t.Cleanup(nw.Close)
	a, b, c := nw.AddSite(1), nw.AddSite(2), nw.AddSite(3)
	op := Method[Ack, Ack]{Name: "op"}
	relay := Method[Ack, Ack]{Name: "relay"}
	Handle(c, op, func(SiteID, *Ack) (*Ack, error) { return nil, nil })
	runs := 0
	Handle(b, relay, func(SiteID, *Ack) (*Ack, error) {
		runs++
		_, err := Call(b, 3, op, &Ack{})
		return nil, fmt.Errorf("relay: %w", err)
	})
	nw.SetObserver(func(p Point) FaultAction {
		if p.Kind == PointRequest && p.From == 2 && p.To == 3 {
			return FaultDropRequest
		}
		return FaultNone
	})
	_, err := Call(a, 2, relay, &Ack{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want a timeout in its chain", err)
	}
	if IsCut(err, 1) || !IsCut(err, 2) {
		t.Errorf("IsCut(err, 1) = %v, IsCut(err, 2) = %v, want false, true", IsCut(err, 1), IsCut(err, 2))
	}
	if runs != 1 {
		t.Errorf("the relay handler ran %d times, want 1", runs)
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
	cutAt(nw, PointRequest, "write", 2, FaultDropRequest)
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

func TestDisabledFaultPlaneIsZeroOverhead(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })

	baseline := nw.Stats()
	if _, err := a.CallSeq(2, "op", nil, a.NextSeq()); err != nil {
		t.Fatal(err)
	}
	noPlane := nw.Stats().Sub(baseline)

	// Armed but zero-rate: message accounting must be
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
