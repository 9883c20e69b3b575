package netsim

import (
	"errors"
	"testing"
)

// TestQuiesceWaitsForCasts keeps its name from when Quiesce had casts
// to wait for. It waits for nothing now — every cast was handled when
// its Cast returned — and all it does is yield the processor once per
// offerBytes the process allocated. Not parallel: the allocation
// counter is the process's.
func TestQuiesceWaitsForCasts(t *testing.T) {
	nw, a, b := twoSites(t)
	handled := 0
	b.Handle("cast", func(SiteID, any) (any, error) {
		handled++
		return nil, nil
	})
	const n = 10
	for i := 0; i < n; i++ {
		if err := a.Cast(2, "cast", nil); err != nil {
			t.Fatal(err)
		}
	}
	if handled != n {
		t.Fatalf("%d/%d casts handled before any Quiesce", handled, n)
	}
	quiesce := func() uint64 {
		for i := 0; i < offerEvery; i++ {
			nw.Quiesce()
		}
		return nw.offer.at
	}
	at := quiesce()
	offerSink = make([]byte, offerBytes)
	offered := quiesce()
	if offered == at {
		t.Fatalf("no offer after %d bytes allocated", offerBytes)
	}
	if again := quiesce(); again != offered {
		t.Fatal("offered again with next to nothing allocated since")
	}
}

var offerSink []byte

func TestCastToUnreachableFailsImmediately(t *testing.T) {
	t.Parallel()
	nw, a, _ := twoSites(t)
	nw.SetLink(1, 2, false)
	if err := a.Cast(2, "x", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallFromCrashedSiteFails(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	nw.Crash(1)
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call from crashed site: %v", err)
	}
	// Even a self-call fails while down.
	a.Handle("self", func(SiteID, any) (any, error) { return nil, nil })
	if _, err := a.Call(1, "self", nil); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("self call while down: %v", err)
	}
}

func TestHandlerErrorPropagatesToCaller(t *testing.T) {
	t.Parallel()
	sentinel := errors.New("application failure")
	_, a, b := twoSites(t)
	b.Handle("fail", func(SiteID, any) (any, error) { return nil, sentinel })
	_, err := a.Call(2, "fail", nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the handler's error value", err)
	}
}

func TestStatsByMethodAndBytes(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	b.Handle("m1", func(SiteID, any) (any, error) { return nil, nil })
	b.Handle("m2", func(SiteID, any) (any, error) { return nil, nil })
	before := nw.Stats()
	for i := 0; i < 3; i++ {
		if _, err := a.Call(2, "m1", nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Cast(2, "m2", nil); err != nil {
		t.Fatal(err)
	}
	d := nw.Stats().Sub(before)
	if d.ByMethod["m1"] != 6 || d.ByMethod["m2"] != 1 {
		t.Fatalf("ByMethod = %v", d.ByMethod)
	}
	if d.Calls != 3 || d.Casts != 1 {
		t.Fatalf("calls=%d casts=%d", d.Calls, d.Casts)
	}
	if d.Bytes <= 0 || d.CPUUs <= 0 {
		t.Fatalf("bytes=%d cpu=%d", d.Bytes, d.CPUUs)
	}
}

func TestRestartIdempotentAndCrashIdempotent(t *testing.T) {
	t.Parallel()
	nw, _, _ := twoSites(t)
	nw.Crash(2)
	nw.Crash(2) // no panic
	nw.Restart(2)
	nw.Restart(2) // no panic
	if !nw.Up(2) {
		t.Fatal("site 2 should be up")
	}
}

func TestConnectedSemantics(t *testing.T) {
	t.Parallel()
	nw, _, _ := twoSites(t)
	if !nw.Connected(1, 1) {
		t.Fatal("self-connectivity while up")
	}
	nw.Crash(1)
	if nw.Connected(1, 1) || nw.Connected(1, 2) {
		t.Fatal("crashed site must not be connected to anything")
	}
}
