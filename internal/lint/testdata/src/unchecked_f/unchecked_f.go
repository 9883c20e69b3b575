// Package unchecked_f is a locus-vet fixture: the test config requires
// the error results of Conn.Call, Conn.Cast, the generic function Call
// and the generic type's method Method.Cast to be consumed.
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

func okSuppressed(c *Conn) {
	c.Cast("best-effort") //locus:vet-allow uncheckedcall fixture: delivery is advisory here
}

// Generic callees: a generic function, called with inferred and with
// explicit type arguments, and a method of a generic type all resolve
// to their one declaration (types.Func.Origin).
type Method[Req, Resp any] struct{ Name string }

func Call[Req, Resp any](c *Conn, m Method[Req, Resp], req *Req) (*Resp, error) {
	_, err := c.Call(m.Name)
	return nil, err
}

func (m Method[Req, Resp]) Cast(c *Conn, req *Req) error { return c.Cast(m.Name) }

type pingReq struct{}
type pingResp struct{}

var mPing = Method[pingReq, pingResp]{Name: "ping"}

func badGenericDropped(c *Conn) {
	Call(c, mPing, &pingReq{}) // want "error result of Call is discarded"
}

func badGenericExplicit(c *Conn) *pingResp {
	r, _ := Call[pingReq, pingResp](c, mPing, &pingReq{}) // want "error result of Call is discarded"
	return r
}

func badGenericMethod(c *Conn) {
	mPing.Cast(c, &pingReq{}) // want "error result of Method.Cast is discarded"
}

func okGenericChecked(c *Conn) (*pingResp, error) {
	return Call(c, mPing, &pingReq{})
}

func okGenericSuppressed(c *Conn) {
	Call(c, mPing, &pingReq{}) //locus:vet-allow uncheckedcall fixture: delivery is advisory here
}

// Unrelated methods with the same name on other types are not flagged.
type Other struct{}

func (Other) Cast(string) error { return nil }

func okOtherType(o Other) {
	o.Cast("x")
}
