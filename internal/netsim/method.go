package netsim

import (
	"errors"
	"sort"
)

// Typed kernel-to-kernel messages.
//
// The paper's remote service is a fixed set of "specialized
// problem-oriented protocols" with no low-level acknowledgements
// (§2.3): when a message is lost the virtual circuit resets and the
// *operation* level must recover. A message's request/reply shape and
// whether a retransmission may re-run it are therefore part of its
// definition, and a Method or OneWay value is that definition, written
// once beside the message structs. Handle, Call (CallAt) and Cast
// (CastAt) are the only way the protocol packages (fs, proc) reach the
// transport: the compiler pairs every caller with its handler's types,
// and the at-most-once class travels with the name instead of living in
// a side table.
//
// Error taxonomy Call and Cast enforce for callers:
//   - ErrTimeout:       message lost, retried here; surfaces only after
//     the budget is exhausted.
//   - ErrUnreachable:   no circuit (partition) — not retried; the
//     partition/merge protocols own recovery.
//   - ErrCrashed:       destination down — not retried; wraps
//     ErrUnreachable.
//   - ErrCircuitClosed: the circuit the request went out on closed
//     while the handler ran; reported when the handler returns. Not
//     retried blindly (the operation may have applied); cleanup (§5.6)
//     decides per resource.

// Method declares one request/response message. AtMostOnce marks a
// request that changes remote state: every transmission of one logical
// request then carries the same fresh sequence number, so the callee's
// dedup table replays the recorded reply instead of re-running the
// handler (a commit whose response was lost must not commit twice; a
// create must not allocate two inodes). Methods left false are reads
// of immutable snapshot state or absolute-value updates, safe to
// replay, and stay out of the dedup tables.
type Method[Req, Resp any] struct {
	Name       string
	AtMostOnce bool
}

// OneWay declares one message with no reply. One-ways carry absolute
// state (page contents, attribute values, version vectors), so a
// retransmission needs no dedup.
type OneWay[Msg any] struct {
	Name string
}

// Ack is the reply type of a Method whose response carries no data;
// its handlers return a nil *Ack.
type Ack struct{}

// retryBudget bounds transmissions per logical request. With the fault
// plane's default timeout this bounds the virtual time one exchange
// can burn before its error surfaces.
const retryBudget = 8

// Handle binds h as site n's handler for m.
func Handle[Req, Resp any](n *Node, m Method[Req, Resp], h func(from SiteID, req *Req) (*Resp, error)) {
	n.Handle(m.Name, func(from SiteID, p any) (any, error) {
		resp, err := h(from, p.(*Req))
		if resp == nil {
			// An untyped nil: CallSeq probes Sizer on the interface
			// value, and a typed nil pointer would satisfy it.
			return nil, err
		}
		return resp, err
	})
}

// HandleCast binds h as site n's handler for the one-way m.
func HandleCast[Msg any](n *Node, m OneWay[Msg], h func(from SiteID, msg *Msg) error) {
	n.Handle(m.Name, func(from SiteID, p any) (any, error) {
		return nil, h(from, p.(*Msg))
	})
}

// Call performs the exchange m with site to under LOCUS retry
// semantics: ErrTimeout alone is retried, under the simulated clock's
// backoff, and an AtMostOnce method draws one sequence number that all
// its retransmissions share.
func Call[Req, Resp any](n *Node, to SiteID, m Method[Req, Resp], req *Req) (*Resp, error) {
	var seq int64
	if m.AtMostOnce {
		seq = n.NextSeq()
	}
	var err error
	for attempt := 0; attempt < retryBudget; attempt++ {
		var v any
		v, err = n.CallSeq(to, m.Name, req, seq)
		if err == nil || !errors.Is(err, ErrTimeout) {
			if v == nil {
				return nil, err
			}
			return v.(*Resp), err
		}
		n.nw.clock.Backoff()
	}
	return nil, err
}

// CallAt is Call for a caller that owns m's handler too: when to is n's
// own site the exchange is a kernel procedure call on local — no
// message, no charge ("the local site is the CSS, only a procedure
// call is needed", §2.3.3) — and the network exchange otherwise.
func CallAt[Req, Resp any](n *Node, to SiteID, m Method[Req, Resp],
	local func(from SiteID, req *Req) (*Resp, error), req *Req) (*Resp, error) {
	if to == n.id {
		return local(n.id, req)
	}
	return Call(n, to, m, req)
}

// Cast sends the one-way m to site to, retrying ErrTimeout like Call.
func Cast[Msg any](n *Node, to SiteID, m OneWay[Msg], msg *Msg) error {
	var err error
	for attempt := 0; attempt < retryBudget; attempt++ {
		err = n.Cast(to, m.Name, msg)
		if err == nil || !errors.Is(err, ErrTimeout) {
			return err
		}
		n.nw.clock.Backoff()
	}
	return err
}

// CastAt is Cast for a caller that owns m's handler too, the one-way
// twin of CallAt: when to is n's own site the message is a kernel
// procedure call on local, and a network send otherwise.
func CastAt[Msg any](n *Node, to SiteID, m OneWay[Msg], local func(from SiteID, msg *Msg) error, msg *Msg) error {
	if to == n.id {
		return local(n.id, msg)
	}
	return Cast(n, to, m, msg)
}

// Methods returns the names this node has handlers for, sorted.
func (n *Node) Methods() []string {
	n.mu.Lock()
	names := make([]string, 0, len(n.handlers))
	for name := range n.handlers {
		names = append(names, name)
	}
	n.mu.Unlock()
	sort.Strings(names)
	return names
}
