package fs

// At-most-once RPC wrappers over the netsim transport.
//
// The paper's problem-oriented protocols carry no low-level
// acknowledgements (§2.3): when a message is lost the virtual circuit
// resets and the *operation* level must recover. These wrappers are
// that recovery: a bounded retry loop driven by the simulated clock's
// backoff, with mutating requests tagged by a per-site sequence number
// so the callee's dedup table makes retries at-most-once (a commit
// whose response was lost must not commit twice; a create must not
// allocate two inodes).
//
// Error taxonomy the wrappers enforce for callers:
//   - netsim.ErrTimeout:      message lost, retried here; surfaces only
//                             after the budget is exhausted.
//   - netsim.ErrUnreachable:  no circuit (partition) — not retried; the
//                             partition/merge protocols own recovery.
//   - netsim.ErrCrashed:      destination down — not retried; wraps
//                             ErrUnreachable.
//   - netsim.ErrCircuitClosed: circuit died mid-exchange — not retried
//                             blindly (the operation may have applied);
//                             cleanup (§5.6) decides per resource.

import (
	"errors"

	"repro/internal/netsim"
)

// rpcRetryBudget bounds transmissions per logical request. With the
// fault plane's default timeout this bounds the virtual time one
// exchange can burn before its error surfaces.
const rpcRetryBudget = 8

// mutating lists the methods that change remote state and therefore
// must be deduplicated when retried. Reads (mRead, mGetVV, mPullOpen,
// mReadPhys, mPullPages, mListInodes) stay seq-less: they are
// idempotent reads of immutable snapshot pages, and exempting them
// keeps page payloads out of the dedup tables.
var mutating = map[string]bool{
	mOpen:         true, // installs CSS lock-table + SS serving state
	mSSOpen:       true, // installs SS serving state
	mCommit:       true, // bumps the version vector, commits the shadow inode
	mClose:        true, // tears down serving state
	mSSClose:      true, // releases the CSS lock entry
	mCreate:       true, // allocates a FileID
	mSSCreate:     true, // durably commits the birth inode
	mResolveShip:  true, // may perform dirops at the shipped-to site
	mLeaseRevoke:  true, // tears down lease state at the holder
	mLeaseRelease: true, // removes the CSS delegate record
}

// call is the kernel's RPC entry point: Node.Call with LOCUS retry
// semantics. Mutating methods get a fresh at-most-once sequence number
// that all retransmissions share.
func (k *Kernel) call(to SiteID, method string, payload any) (any, error) {
	var seq int64
	if mutating[method] {
		seq = k.node.NextSeq()
	}
	clk := k.node.Network().Clock()
	var err error
	for attempt := 0; attempt < rpcRetryBudget; attempt++ {
		var v any
		v, err = k.node.CallSeq(to, method, payload, seq) //locus:vet-allow rawcall the one legitimate raw transport use in fs: this is the retrying wrapper
		if err == nil || !errors.Is(err, netsim.ErrTimeout) {
			return v, err
		}
		clk.Backoff(attempt)
	}
	return nil, err
}

// cast is the kernel's one-way send with retry. Every fs one-way
// (mWrite with absolute page content, mPropNotify, mSetAttr with
// absolute values, mMarkConflict) is idempotent, so retransmission
// needs no dedup.
func (k *Kernel) cast(to SiteID, method string, payload any) error {
	clk := k.node.Network().Clock()
	var err error
	for attempt := 0; attempt < rpcRetryBudget; attempt++ {
		err = k.node.Cast(to, method, payload) //locus:vet-allow rawcall the retrying wrapper itself; see call
		if err == nil || !errors.Is(err, netsim.ErrTimeout) {
			return err
		}
		clk.Backoff(attempt)
	}
	return err
}
