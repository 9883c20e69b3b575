// Package atomiccounter_f is a locus-vet fixture for the forbidden-call
// table's atomic row: the test points the production row at it, so a
// package-level sync/atomic function is flagged wherever it is
// referenced, while a typed atomic's methods stay quiet.
package atomiccounter_f

import "sync/atomic"

type counters struct {
	hits atomic.Int64
	raw  int64
}

// Typed atomics: every access is atomic by construction, and their
// methods have receivers, which the row's spec never matches.
func (c *counters) record() {
	c.hits.Add(1)
}

func (c *counters) snapshot() int64 {
	return c.hits.Load()
}

// A plain int64 bumped through sync/atomic is one plain access away
// from a race.
func (c *counters) bumpRaw() {
	atomic.AddInt64(&c.raw, 1) // want "atomic.AddInt64 in package atomiccounter_f: a value shared between goroutines is a typed atomic"
}

func (c *counters) loadRaw() int64 {
	return atomic.LoadInt64(&c.raw) // want "atomic.LoadInt64 in package atomiccounter_f"
}

// A function value is a reference too.
var add = atomic.AddInt64 // want "atomic.AddInt64 in package atomiccounter_f"

// The audited exception.
func (c *counters) storeRaw(n int64) {
	atomic.StoreInt64(&c.raw, n) //locus:vet-allow atomic fixture: the audited exception
}
