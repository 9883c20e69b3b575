// Package rawcall_f is a locus-vet fixture: the test points the
// production rawcall row at it (its RPCs must go through the typed
// path), with the row's Node.Handle/Call/CallSeq/Cast re-homed to this
// package's Node.
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

func (n *Node) Handle(method string, h func(from int, p any) (any, error)) {}

type Kernel struct {
	node *Node
}

func badRawCall(k *Kernel) (any, error) {
	return k.node.Call(2, "fs.commit", nil) // want "Node.Call in package rawcall_f: the untyped transport bypasses the typed at-most-once path"
}

func badRawCallSeq(k *Kernel) (any, error) {
	return k.node.CallSeq(2, "fs.commit", nil, 7) // want "Node.CallSeq in package rawcall_f: the untyped transport bypasses the typed at-most-once path"
}

func badRawCast(k *Kernel) error {
	return k.node.Cast(2, "fs.write", nil) // want "Node.Cast in package rawcall_f: the untyped transport bypasses the typed at-most-once path"
}

// A handler bound by raw string escapes the compiler's pairing of
// caller and handler types.
func badRawHandle(k *Kernel) {
	k.node.Handle("fs.commit", nil) // want "Node.Handle in package rawcall_f: the untyped transport bypasses the typed at-most-once path"
}

// Method and Call stand in for the typed path, which in production
// lives in netsim, outside the wrapped packages.
type Method[Req, Resp any] struct{ Name string }

func Call[Req, Resp any](n *Node, to int, m Method[Req, Resp], req *Req) (*Resp, error) {
	v, err := n.Call(to, m.Name, req) //locus:vet-allow rawcall fixture: this is the typed path itself
	resp, _ := v.(*Resp)
	return resp, err
}

type commitReq struct{}
type commitResp struct{}

var mCommit = Method[commitReq, commitResp]{Name: "fs.commit"}

func okThroughTypedPath(k *Kernel) (*commitResp, error) {
	return Call(k.node, 2, mCommit, &commitReq{})
}

// A same-named method on an unrelated type is not the transport.
type Other struct{}

func (Other) Call(to int, method string, payload any) (any, error) { return nil, nil }

func okOtherType(o Other) {
	o.Call(1, "x", nil) // not the transport type
}
