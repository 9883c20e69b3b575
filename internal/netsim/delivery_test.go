package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The contract of sender-side delivery: what a Cast, a Call or a
// topology change has done by the time it returns, with no Quiesce
// anywhere in this file.

func TestCastHandlerHasRunOnReturn(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	ran := 0 // no lock: the handler runs on this goroutine
	b.Handle("note", func(from SiteID, p any) (any, error) {
		if from != 1 || p.(string) != "page" {
			t.Errorf("handler saw from=%d payload=%v", from, p)
		}
		ran++
		return nil, errors.New("a cast handler's error has no reply path")
	})
	before := nw.Stats()
	if err := a.Cast(2, "note", "page"); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("handler ran %d times when Cast returned, want 1", ran)
	}
	if d := nw.Stats().Sub(before); d.Msgs != 1 || d.Casts != 1 || d.ByMethod["note"] != 1 {
		t.Fatalf("one cast charged msgs=%d casts=%d note=%d, want 1/1/1", d.Msgs, d.Casts, d.ByMethod["note"])
	}
	// A method nobody handles is a message nobody reads, not an error.
	if err := a.Cast(2, "nope", nil); err != nil {
		t.Fatalf("cast of an unhandled method: %v", err)
	}
}

func TestCastUnderFaultPlane(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	ran := 0
	b.Handle("write", func(SiteID, any) (any, error) { ran++; return nil, nil })
	nw.EnableFaults(FaultConfig{
		Rates: FaultRates{Delay: 1, DelayMaxUs: 300},
		// A point counts only the sends no earlier point claimed.
		Points: []FaultPoint{
			{Method: "write", Nth: 1, Action: FaultDupRequest},
			{Method: "write", Nth: 1, Action: FaultDropRequest},
		},
	})

	before := nw.Stats()
	if err := a.Cast(2, "write", nil); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("duplicated cast ran the handler %d times before returning, want 2", ran)
	}
	if d := nw.Stats().Sub(before); d.MsgsDuped != 1 || d.Msgs != 2 || d.Casts != 1 {
		t.Fatalf("duplicated cast: duped=%d msgs=%d casts=%d, want 1/2/1", d.MsgsDuped, d.Msgs, d.Casts)
	}

	before = nw.Stats()
	if err := a.Cast(2, "write", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped cast: err = %v, want ErrTimeout", err)
	}
	if ran != 2 {
		t.Fatalf("dropped cast ran the handler (%d runs in all, want 2)", ran)
	}
	if d := nw.Stats().Sub(before); d.MsgsDropped != 1 || d.Msgs != 1 {
		t.Fatalf("dropped cast: dropped=%d msgs=%d, want 1/1 (sent, then lost)", d.MsgsDropped, d.Msgs)
	}

	// A delay moves the clock and nothing else: the points are spent,
	// the rate delays every message.
	before, clk := nw.Stats(), nw.Clock().NowUs()
	if err := a.Cast(2, "write", nil); err != nil {
		t.Fatal(err)
	}
	d := nw.Stats().Sub(before)
	if ran != 3 || d.MsgsDelayed != 1 || d.Msgs != 1 || d.MsgsDuped != 0 || d.MsgsDropped != 0 {
		t.Fatalf("delayed cast: runs=%d delta=%+v", ran, d)
	}
	if waited := nw.Clock().NowUs() - clk - d.CPUUs; waited < 1 || waited > 300 {
		t.Fatalf("delayed cast moved the clock %d µs beyond its CPU charge, want 1..300", waited)
	}
}

// TestCastNestsBackToSender is the shape of proc's handleChildExit
// chasing a migrated parent: site 2's handler casts on to site 1 while
// site 1 is still inside its own Cast.
func TestCastNestsBackToSender(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var order []string
	a.Handle("exit", func(from SiteID, _ any) (any, error) {
		order = append(order, "1 hears from 2")
		if from != 2 {
			t.Errorf("forwarded cast arrived from %d, want 2", from)
		}
		return nil, nil
	})
	b.Handle("exit", func(SiteID, any) (any, error) {
		order = append(order, "2 forwards")
		return nil, b.Cast(1, "exit", nil)
	})
	before := nw.Stats()
	if err := a.Cast(2, "exit", nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "2 forwards" || order[1] != "1 hears from 2" {
		t.Fatalf("nested delivery order %v", order)
	}
	if d := nw.Stats().Sub(before); d.Msgs != 2 {
		t.Fatalf("chase charged %d messages, want 2", d.Msgs)
	}
}

// TestNetworkStartsNoGoroutine: a network at rest is data. Not
// parallel — it counts the process's goroutines, and an earlier test's
// may still be exiting, so the count may only fall.
func TestNetworkStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	nw := New(DefaultCosts())
	a := nw.AddSite(1)
	b := nw.AddSite(2)
	nw.AddSite(3)
	inHandler := 0
	b.Handle("op", func(SiteID, any) (any, error) {
		inHandler = runtime.NumGoroutine() // no lock: the handler runs on this goroutine
		return nil, nil
	})
	if err := a.Cast(2, "op", nil); err != nil {
		t.Fatal(err)
	}
	if inHandler == 0 || inHandler > before {
		t.Fatalf("%d goroutines inside a cast's handler, %d before", inHandler, before)
	}
	inHandler = 0
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatal(err)
	}
	if inHandler == 0 || inHandler > before {
		t.Fatalf("%d goroutines inside a call's handler, %d before: the handler runs on its caller's", inHandler, before)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines with three sites added, a cast delivered and a call served, %d before", n, before)
	}
	nw.Close()
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
	if err := a.Cast(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("cast after Close: err = %v, want ErrUnreachable", err)
	}
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call after Close: err = %v, want ErrUnreachable", err)
	}
}

// TestCallNeedsTheCircuitItWentOutOn: a reply travels only on the
// circuit the request used. A handler that takes its caller's link down
// and up again leaves a circuit up but a different one; a link between
// other sites is no concern of the exchange.
func TestCallNeedsTheCircuitItWentOutOn(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	t.Cleanup(nw.Close)
	a, b := nw.AddSite(1), nw.AddSite(2)
	nw.AddSite(3)
	b.Handle("bounce", func(SiteID, any) (any, error) {
		nw.SetLink(1, 2, false)
		nw.SetLink(1, 2, true)
		return "lost", nil
	})
	b.Handle("elsewhere", func(SiteID, any) (any, error) {
		nw.SetLink(2, 3, false)
		return "kept", nil
	})

	before := nw.Stats()
	v, err := a.Call(2, "bounce", nil)
	if !errors.Is(err, ErrCircuitClosed) || v != nil {
		t.Fatalf("call whose circuit was replaced under it: v=%v err=%v, want ErrCircuitClosed", v, err)
	}
	if !nw.Connected(1, 2) {
		t.Fatal("link 1-2 should be up again")
	}
	if d := nw.Stats().Sub(before); d.CircuitResets != 1 || d.Msgs != 2 {
		t.Fatalf("resets=%d msgs=%d, want 1 reset and the 2 messages charged at send", d.CircuitResets, d.Msgs)
	}

	before = nw.Stats()
	if v, err := a.Call(2, "elsewhere", nil); err != nil || v != "kept" {
		t.Fatalf("call across an untouched circuit: v=%v err=%v", v, err)
	}
	if d := nw.Stats().Sub(before); d.CircuitResets != 0 {
		t.Fatalf("CircuitResets = %d after an unrelated link went down, want 0", d.CircuitResets)
	}
	// The new circuit 1-2 carries the next call.
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("call on the new circuit: %v", err)
	}
}

// TestCrashBeforeReplyHasRunOnCrash: the scripted crash happens on the
// caller's goroutine, so the callee's OnCrash callbacks have returned —
// its volatile state is gone — when the caller sees ErrCircuitClosed.
func TestCrashBeforeReplyHasRunOnCrash(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	var log []string // no lock: everything runs on this goroutine
	b.Handle("commit", func(SiteID, any) (any, error) {
		log = append(log, "applied")
		return "ok", nil
	})
	b.OnCrash(func() { log = append(log, "fs discarded") })
	b.OnCrash(func() { log = append(log, "proc discarded") })
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: "commit", Action: FaultCrashBeforeReply}},
	})
	before := nw.Stats()
	if _, err := a.Call(2, "commit", nil); !errors.Is(err, ErrCircuitClosed) {
		t.Fatalf("err = %v, want ErrCircuitClosed", err)
	}
	if len(log) != 3 || log[0] != "applied" || log[1] != "fs discarded" || log[2] != "proc discarded" {
		t.Fatalf("when Call returned the callee had done %v", log)
	}
	if d := nw.Stats().Sub(before); d.CircuitResets != 1 {
		t.Fatalf("CircuitResets = %d, want 1", d.CircuitResets)
	}
}

// TestLinkDownCallbacksHaveRunOnReturn: whatever closes a circuit runs
// the link-down callbacks on its own goroutine, in the documented
// order, before it returns — SetLink a-told-of-b then b-told-of-a;
// PartitionGroups pair by pair, ascending; Crash the site's OnCrash
// callbacks, then its peers in ascending site order, also when it is a
// Call's fault that crashes the callee.
func TestLinkDownCallbacksHaveRunOnReturn(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, nw *Network)
		want   string
	}{
		{"SetLink", func(_ *testing.T, nw *Network) { nw.SetLink(3, 1, false) },
			"3<-1 1<-3"},
		{"PartitionGroups", func(_ *testing.T, nw *Network) { nw.PartitionGroups([]SiteID{1, 4}, []SiteID{3}) },
			"1<-2 2<-1 1<-3 3<-1 2<-3 3<-2 2<-4 4<-2 3<-4 4<-3"},
		{"Crash", func(_ *testing.T, nw *Network) { nw.Crash(2) },
			"crash2 1<-2 3<-2 4<-2"},
		{"CrashBeforeReply", func(t *testing.T, nw *Network) {
			nw.EnableFaults(FaultConfig{
				Points: []FaultPoint{{From: 4, To: 2, Method: "op", Action: FaultCrashBeforeReply}},
			})
			if _, err := nw.Node(4).Call(2, "op", nil); !errors.Is(err, ErrCircuitClosed) {
				t.Fatalf("err = %v, want ErrCircuitClosed", err)
			}
		}, "op crash2 1<-2 3<-2 4<-2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw := New(DefaultCosts())
			t.Cleanup(nw.Close)
			var log []string // no lock: everything runs on this goroutine
			for id := SiteID(1); id <= 4; id++ {
				n := nw.AddSite(id)
				n.OnLinkDown(func(peer SiteID) { log = append(log, fmt.Sprintf("%d<-%d", n.ID(), peer)) })
				n.OnCrash(func() { log = append(log, fmt.Sprintf("crash%d", n.ID())) })
				n.Handle("op", func(SiteID, any) (any, error) {
					log = append(log, "op")
					return nil, nil
				})
			}
			tc.change(t, nw)
			if got := strings.Join(log, " "); got != tc.want {
				t.Fatalf("when the change returned:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestNestedCallsFailFrameByFrame: in a US -> CSS -> SS chain (the open
// protocol's shape) the SS crashes the CSS. Both exchanges lose their
// circuit — the inner one its caller, the outer one its callee — and
// each frame fails as it returns, innermost first.
func TestNestedCallsFailFrameByFrame(t *testing.T) {
	t.Parallel()
	nw := New(DefaultCosts())
	t.Cleanup(nw.Close)
	us, css, ss := nw.AddSite(1), nw.AddSite(2), nw.AddSite(3)
	var innerErr error
	ss.Handle("storage", func(SiteID, any) (any, error) {
		nw.Crash(2)
		return "data", nil
	})
	css.Handle("open", func(SiteID, any) (any, error) {
		var v any
		v, innerErr = css.Call(3, "storage", nil)
		return v, innerErr
	})
	before := nw.Stats()
	_, err := us.Call(2, "open", nil)
	if !errors.Is(innerErr, ErrCircuitClosed) {
		t.Fatalf("inner frame: err = %v, want ErrCircuitClosed", innerErr)
	}
	if !errors.Is(err, ErrCircuitClosed) {
		t.Fatalf("outer frame: err = %v, want ErrCircuitClosed", err)
	}
	if d := nw.Stats().Sub(before); d.CircuitResets != 2 || d.Msgs != 4 {
		t.Fatalf("resets=%d msgs=%d, want 2 resets (one a frame) and 4 messages", d.CircuitResets, d.Msgs)
	}
}

// TestCallAllocations pins what an exchange costs the allocator: an
// idempotent call is a function call, and so is an at-most-once one
// measured from a full window — where a caller spends its life — because
// there the request records its outcome in the slot it evicts. Not
// parallel: AllocsPerRun.
func TestCallAllocations(t *testing.T) {
	_, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	req := &echoReq{}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := a.Call(2, "op", req); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("idempotent remote Call: %v allocations, want 0", got)
	}
	atMostOnce := func() {
		if _, err := a.CallSeq(2, "op", req, a.NextSeq()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*dedupWindow; i++ {
		atMostOnce()
	}
	if got := testing.AllocsPerRun(200, atMostOnce); got != 0 {
		t.Errorf("at-most-once remote Call from a full window: %v allocations, want 0", got)
	}
}

// BenchmarkCallAtMostOnce is what one exchange costs the wall clock,
// each row started from full windows: an idempotent call, an
// at-most-once call when every request goes to one callee (a using site
// and its one CSS) and when they alternate between two. The three differ
// by the dedup slot and nothing else; a cost that grows with the window
// shows in the one-callee row first.
func BenchmarkCallAtMostOnce(b *testing.B) {
	for _, bc := range []struct {
		name       string
		callees    int
		atMostOnce bool
	}{
		{"idempotent", 1, false},
		{"one-callee", 1, true},
		{"two-callees", 2, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			nw := New(DefaultCosts())
			defer nw.Close()
			a := nw.AddSite(1)
			for i := 0; i < bc.callees; i++ {
				nw.AddSite(SiteID(2+i)).Handle("op", func(SiteID, any) (any, error) { return nil, nil })
			}
			req := &echoReq{}
			call := func(i int) {
				var seq int64
				if bc.atMostOnce {
					seq = a.NextSeq()
				}
				if _, err := a.CallSeq(SiteID(2+i%bc.callees), "op", req, seq); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 2*dedupWindow*bc.callees; i++ {
				call(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(i)
			}
		})
	}
}
