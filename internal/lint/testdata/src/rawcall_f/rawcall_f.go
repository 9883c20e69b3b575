// Package rawcall_f is a locus-vet fixture: the test config declares
// this package wrapped (its RPCs must go through the retrying wrapper)
// and Node.Call/CallSeq/Cast as the raw transport methods.
package rawcall_f

import "errors"

type Node struct{}

func (n *Node) Call(to int, method string, payload any) (any, error) {
	return nil, errors.New(method)
}

func (n *Node) CallSeq(to int, method string, payload any, seq int64) (any, error) {
	return nil, errors.New(method)
}

func (n *Node) Cast(to int, method string, payload any) error {
	return errors.New(method)
}

type Kernel struct {
	node *Node
}

func badRawCall(k *Kernel) (any, error) {
	return k.node.Call(2, "fs.commit", nil) // want "direct Node.Call bypasses the retrying at-most-once RPC wrapper"
}

func badRawCallSeq(k *Kernel) (any, error) {
	return k.node.CallSeq(2, "fs.commit", nil, 7) // want "direct Node.CallSeq bypasses the retrying at-most-once RPC wrapper"
}

func badRawCast(k *Kernel) error {
	return k.node.Cast(2, "fs.write", nil) // want "direct Node.Cast bypasses the retrying at-most-once RPC wrapper"
}

// The wrapper itself is the one sanctioned raw use.
func (k *Kernel) call(to int, method string, payload any) (any, error) {
	return k.node.Call(to, method, payload) //locus:vet-allow rawcall fixture: this is the wrapper
}

func okThroughWrapper(k *Kernel) (any, error) {
	return k.call(2, "fs.commit", nil)
}

// A same-named method on an unrelated type is not the transport.
type Other struct{}

func (Other) Call(to int, method string, payload any) (any, error) { return nil, nil }

func okOtherType(o Other) {
	o.Call(1, "x", nil) //nolint:errcheck fixture: not the transport type
}
