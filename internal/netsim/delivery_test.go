package netsim

import (
	"errors"
	"runtime"
	"testing"
)

// The contract of sender-side delivery: what a Cast has done by the
// time it returns, with no Quiesce anywhere in this file.

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
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	if err := a.Cast(2, "op", nil); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines with three sites added and a cast delivered, %d before", n, before)
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
