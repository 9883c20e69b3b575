// Package simclock provides the simulated time source for the LOCUS
// simulation substrate.
//
// The paper's performance story is told in counted costs — messages,
// CPU microseconds, disk microseconds — not in wall-clock time
// ([GOLD83]; see DESIGN.md). The protocol packages therefore must not
// consult the machine's real clock: doing so makes tests flaky, couples
// benchmark results to host load, and breaks the determinism the
// partition/merge tests depend on. The `simclock` analyzer in
// internal/lint enforces that discipline; this package is the one
// audited place where simulated time meets the real scheduler.
//
// A Clock is a monotonic virtual-microsecond counter. The network
// substrate advances it as simulated cost is charged (per message, per
// disk transfer) and by the timeouts and delays its fault plane
// injects, so Now reflects the same cost model the benchmarks report;
// nothing else moves it, so virtual time is a function of the schedule.
// Backoff is the sanctioned replacement for ad-hoc spin/sleep loops in
// protocol code: it yields the Go scheduler. Nothing here sleeps on, or
// reads, the wall clock.
package simclock

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Epoch is the fixed origin of simulated time. (The paper was presented
// at SOSP on 10 October 1983.)
var Epoch = time.Date(1983, time.October, 10, 0, 0, 0, 0, time.UTC)

// Clock is a monotonic simulated clock counting virtual microseconds.
// The zero value is ready to use. All methods are safe for concurrent
// use.
type Clock struct {
	us atomic.Int64
}

// New returns a clock at virtual time zero.
func New() *Clock { return &Clock{} }

// Advance moves the clock forward by us virtual microseconds and
// returns the new reading. Negative advances are ignored: simulated
// time never runs backwards.
func (c *Clock) Advance(us int64) int64 {
	if us <= 0 {
		return c.us.Load()
	}
	return c.us.Add(us)
}

// NowUs returns the current virtual time in microseconds since Epoch.
func (c *Clock) NowUs() int64 { return c.us.Load() }

// Now returns the current virtual time as an absolute time: Epoch plus
// the virtual microseconds elapsed. Protocol code that needs a
// timestamp (mtimes, mail headers, log lines) uses this instead of
// time.Now.
func (c *Clock) Now() time.Time {
	return Epoch.Add(time.Duration(c.us.Load()) * time.Microsecond)
}

// Elapsed returns the virtual time elapsed since Epoch as a Duration.
func (c *Clock) Elapsed() time.Duration {
	return time.Duration(c.us.Load()) * time.Microsecond
}

// Backoff gives a concurrent goroutine its turn while a caller waits
// for progress it cannot observe through a channel or a condition
// (transport retransmissions): one scheduler yield. It never sleeps and
// never moves the clock, so a wait that nobody can end costs its retry
// budget in yields, not in wall or virtual time. Protocol packages are
// forbidden (by locus-vet's simclock rule) from sleeping on the wall
// clock themselves.
func (c *Clock) Backoff() { runtime.Gosched() }
