// Package unchecked_f is a locus-vet fixture: the test config requires
// Conn.Call and Conn.Cast error results to be consumed.
package unchecked_f

import "errors"

type Conn struct{}

func (c *Conn) Call(op string) ([]byte, error) { return nil, errors.New(op) }
func (c *Conn) Cast(op string) error           { return errors.New(op) }

func badDropped(c *Conn) {
	c.Cast("hello") // want "error result of Conn.Cast is discarded"
}

func badBlank(c *Conn) []byte {
	reply, _ := c.Call("ping") // want "error result of Conn.Call is discarded"
	return reply
}

func badGo(c *Conn) {
	go c.Cast("fire") // want "error result of Conn.Cast is discarded"
}

func badDefer(c *Conn) {
	defer c.Cast("bye") // want "error result of Conn.Cast is discarded"
}

func okChecked(c *Conn) error {
	if err := c.Cast("hello"); err != nil {
		return err
	}
	_, err := c.Call("ping")
	return err
}

func badLegacySuppression(c *Conn) {
	// The retired //nolint:errcheck and //locusvet:allow spellings no
	// longer suppress anything (and the allow audit flags each for
	// migration).
	c.Cast("best-effort") //nolint:errcheck fixture: inert spelling // want "error result of Conn.Cast is discarded"
	c.Cast("best-effort") //locusvet:allow uncheckedcall fixture: inert original spelling // want "error result of Conn.Cast is discarded"
}

func okSuppressed(c *Conn) {
	c.Cast("best-effort") //locus:vet-allow uncheckedcall fixture: delivery is advisory here
}

// Unrelated methods with the same name on other types are not flagged.
type Other struct{}

func (Other) Cast(string) error { return nil }

func okOtherType(o Other) {
	o.Cast("x")
}
