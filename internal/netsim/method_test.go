package netsim

import (
	"errors"
	"sync/atomic"
	"testing"
)

type echoReq struct{ N int }
type echoResp struct{ N int }

// servedEcho binds a counting echo handler for m at b: the reply
// carries the request's N plus the handler's run count, so a replayed
// reply is told apart from a re-run.
func servedEcho(b *Node, m Method[echoReq, echoResp], fail error) *atomic.Int64 {
	var served atomic.Int64
	Handle(b, m, func(_ SiteID, req *echoReq) (*echoResp, error) {
		n := served.Add(1)
		if fail != nil {
			return nil, fail
		}
		return &echoResp{N: req.N + int(n)}, nil
	})
	return &served
}

func TestCallAtMostOnceReplaysRecordedReply(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	m := Method[echoReq, echoResp]{Name: "t.commit", AtMostOnce: true}
	served := servedEcho(b, m, nil)
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: m.Name, Nth: 1, Action: FaultDropResponse}},
	})
	seq0 := a.NextSeq()

	resp, err := Call(a, 2, m, &echoReq{N: 40})
	if err != nil {
		t.Fatalf("Call across a dropped response: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("at-most-once handler ran %d times, want 1", served.Load())
	}
	if resp.N != 41 {
		t.Fatalf("reply N = %d, want 41 (the first run's recorded reply)", resp.N)
	}
	if got := a.NextSeq(); got != seq0+2 {
		t.Fatalf("Call drew %d sequence numbers, want exactly 1 shared by both transmissions", got-seq0-1)
	}
}

func TestCallIdempotentRerunsAndDrawsNoSeq(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	m := Method[echoReq, echoResp]{Name: "t.read"}
	served := servedEcho(b, m, nil)
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: m.Name, Nth: 1, Action: FaultDropResponse}},
	})
	seq0 := a.NextSeq()

	resp, err := Call(a, 2, m, &echoReq{N: 40})
	if err != nil {
		t.Fatalf("Call across a dropped response: %v", err)
	}
	if served.Load() != 2 || resp.N != 42 {
		t.Fatalf("idempotent handler ran %d times (reply N=%d), want 2 runs and the second run's reply", served.Load(), resp.N)
	}
	if got := a.NextSeq(); got != seq0+1 {
		t.Fatalf("an idempotent Call drew %d sequence numbers, want 0", got-seq0-1)
	}
}

func TestCallDoesNotRetryNonTimeoutError(t *testing.T) {
	t.Parallel()
	_, a, b := twoSites(t)
	m := Method[echoReq, echoResp]{Name: "t.fail"}
	errApp := errors.New("application refusal")
	served := servedEcho(b, m, errApp)

	resp, err := Call(a, 2, m, &echoReq{})
	if !errors.Is(err, errApp) || resp != nil {
		t.Fatalf("Call = (%v, %v), want (nil, application refusal)", resp, err)
	}
	if served.Load() != 1 {
		t.Fatalf("handler ran %d times for a non-timeout error, want 1", served.Load())
	}

	nw2, a2, _ := twoSites(t)
	nw2.SetLink(1, 2, false)
	clk0 := nw2.Clock().NowUs()
	if _, err := Call(a2, 2, m, &echoReq{}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("Call over a cut link: err = %v, want ErrUnreachable", err)
	}
	if nw2.Clock().NowUs() != clk0 {
		t.Fatal("an unreachable destination was backed off and retried")
	}
}

func TestCastRetriesTimeoutOnly(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	m := OneWay[echoReq]{Name: "t.note"}
	var served atomic.Int64
	HandleCast(b, m, func(SiteID, *echoReq) error {
		served.Add(1)
		return nil
	})
	nw.EnableFaults(FaultConfig{
		Points: []FaultPoint{{From: 1, To: 2, Method: m.Name, Nth: 1, Action: FaultDropRequest}},
	})
	if err := Cast(a, 2, m, &echoReq{}); err != nil {
		t.Fatalf("Cast across a dropped message: %v", err)
	}
	if served.Load() != 1 {
		t.Fatalf("one-way handler ran %d times, want 1 (the retransmission)", served.Load())
	}
}

// sizedResp would report a wire size if the transport ever saw it.
type sizedResp struct{}

func (*sizedResp) WireSize() int { return 1 << 20 }

// TestHandleNilReplyIsUntypedNil pins the wrapper's nil handling: serve
// probes Sizer on the reply's interface value, and a nil *sizedResp
// boxed as a typed nil would satisfy it (and be charged, or
// dereferenced). The reply must reach the transport as a plain nil.
func TestHandleNilReplyIsUntypedNil(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	m := Method[echoReq, sizedResp]{Name: "t.ack"}
	Handle(b, m, func(SiteID, *echoReq) (*sizedResp, error) { return nil, nil })

	if v, err := b.handler(m.Name)(1, &echoReq{}); v != nil || err != nil {
		t.Fatalf("wrapped handler returned (%#v, %v) for a nil reply, want untyped (nil, nil)", v, err)
	}
	before := nw.Stats()
	resp, err := Call(a, 2, m, &echoReq{})
	if resp != nil || err != nil {
		t.Fatalf("Call = (%v, %v), want (nil, nil)", resp, err)
	}
	if d := nw.Stats().Sub(before); d.Bytes >= 1<<20 {
		t.Fatalf("a nil reply was byte-charged as a sized payload: %d bytes", d.Bytes)
	}
}

func TestCallAtLocalIsAProcedureCall(t *testing.T) {
	t.Parallel()
	nw, a, b := twoSites(t)
	m := Method[echoReq, echoResp]{Name: "t.commit", AtMostOnce: true}
	served := servedEcho(b, m, nil)
	local := func(from SiteID, req *echoReq) (*echoResp, error) {
		return &echoResp{N: -req.N}, nil
	}
	before, seq0 := nw.Stats(), a.NextSeq()

	resp, err := CallAt(a, 1, m, local, &echoReq{N: 7})
	if err != nil || resp.N != -7 {
		t.Fatalf("CallAt to own site = (%v, %v), want the local handler's reply", resp, err)
	}
	if d := nw.Stats().Sub(before); d.Msgs != 0 || d.CPUUs != 0 || a.NextSeq() != seq0+1 {
		t.Fatalf("a local CallAt cost %d msgs, %d cpu us and drew a sequence number", d.Msgs, d.CPUUs)
	}
	if resp, err = CallAt(a, 2, m, local, &echoReq{N: 7}); err != nil || resp.N != 8 || served.Load() != 1 {
		t.Fatalf("CallAt to site 2 = (%v, %v) after %d remote runs, want the remote handler's reply", resp, err, served.Load())
	}
}
