package proc

// At-most-once RPC wrappers for the process layer, mirroring
// internal/fs/rpc.go. Every proc exchange mutates remote state (run
// spawns a process, signal delivers, fdtoken/fdyank move the offset
// token, piperead consumes buffered bytes), so all calls are tagged
// with a fresh at-most-once sequence number: a retried exchange whose
// first response was lost returns the cached outcome instead of
// spawning a second process or consuming the pipe twice.

import (
	"errors"

	"repro/internal/netsim"
)

// rpcRetryBudget bounds transmissions per logical request.
const rpcRetryBudget = 8

// call wraps Node.Call with retry-on-timeout and at-most-once dedup.
func (m *Manager) call(to SiteID, method string, payload any) (any, error) {
	seq := m.node.NextSeq()
	clk := m.node.Network().Clock()
	var err error
	for attempt := 0; attempt < rpcRetryBudget; attempt++ {
		var v any
		v, err = m.node.CallSeq(to, method, payload, seq) //locus:vet-allow rawcall the one legitimate raw transport use in proc: this is the retrying wrapper
		if err == nil || !errors.Is(err, netsim.ErrTimeout) {
			return v, err
		}
		clk.Backoff(attempt)
	}
	return nil, err
}

// cast wraps Node.Cast with retry-on-timeout (proc one-ways carry
// absolute state and are idempotent).
func (m *Manager) cast(to SiteID, method string, payload any) error {
	clk := m.node.Network().Clock()
	var err error
	for attempt := 0; attempt < rpcRetryBudget; attempt++ {
		err = m.node.Cast(to, method, payload) //locus:vet-allow rawcall the retrying wrapper itself; see call
		if err == nil || !errors.Is(err, netsim.ErrTimeout) {
			return err
		}
		clk.Backoff(attempt)
	}
	return err
}
