// Package staleallow_f is the fixture for the stale-suppression audit:
// a //locus:vet-allow directive that suppressed zero findings on a run
// is itself reported (staleallow) — it is either obsolete (the code was
// fixed) or mislocated (the finding it meant to hide fires one line
// away) — while a directive that fires stays quiet.
package staleallow_f

import "errors"

// Conn mimics a transport whose Cast error the uncheckedcall analyzer
// requires callers to consume; the audit test runs that analyzer over
// this package first to populate the usage ledger.
type Conn struct{}

func (c *Conn) Cast(op string) error { return errors.New(op) }

// liveAllow suppresses a real uncheckedcall finding; the audit must
// stay quiet about this directive.
func liveAllow(c *Conn) {
	c.Cast("advisory") //locus:vet-allow uncheckedcall fixture: suppresses a live finding
}

// staleAllow carries a directive on a line that produces no finding —
// the error is returned — so the audit flags it.
func staleAllow(c *Conn) error {
	return c.Cast("checked") //locus:vet-allow uncheckedcall fixture: suppresses nothing
}
