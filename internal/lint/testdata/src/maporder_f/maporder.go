// Package maporder_f is a locus-vet fixture for the maporder analyzer:
// map-range statements whose iteration order reaches the wire (directly
// or through the interprocedural wire summary) or escapes into a slice
// that is never sorted. The test config declares Node.Call, Node.Cast
// and the generic typed Cast over it as the order-observable transport
// exchanges.
package maporder_f

import "sort"

type Node struct{}

func (n *Node) Call(to int, method string, payload any) (any, error) { return nil, nil }

func (n *Node) Cast(to int, method string, payload any) error { return nil }

type kernel struct {
	peers map[int]bool
	state map[string]int
}

// broadcast sends per iteration: the send order is the map order.
func (k *kernel) broadcast(n *Node) {
	for p := range k.peers { // want "order-observable wire send"
		_ = n.Cast(p, "mo.ping", nil)
	}
}

// notify reaches the wire one call deep; only the summary tier sees it.
func (k *kernel) notify(n *Node, p int) {
	_ = n.Cast(p, "mo.note", nil)
}

func (k *kernel) fanout(n *Node) {
	for p := range k.peers { // want "order-observable wire send"
		k.notify(n, p)
	}
}

// A send hidden in a goroutine still happens per iteration.
func (k *kernel) fanoutAsync(n *Node) {
	for p := range k.peers { // want "order-observable wire send"
		go func(p int) { _ = n.Cast(p, "mo.async", nil) }(p)
	}
}

// The random order escapes into the returned slice.
func (k *kernel) keysUnsorted() []string {
	var out []string
	for s := range k.state { // want "escapes into out"
		out = append(out, s)
	}
	return out
}

// The canonical fix: collect, sort, then act.
func (k *kernel) keysSorted() []string {
	var out []string
	for s := range k.state {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// A sort inside a nested literal runs in another function root and does
// not order the escaping slice.
func (k *kernel) sortElsewhere() []string {
	var out []string
	for s := range k.state { // want "escapes into out"
		out = append(out, s)
	}
	fix := func() { sort.Strings(out) }
	_ = fix
	return out
}

// Order-free effects (a counter sum) are not flagged.
func (k *kernel) count() int {
	total := 0
	for range k.state {
		total++
	}
	return total
}

// A slice born inside the loop body dies with the iteration.
func (k *kernel) perIteration() int {
	total := 0
	for s := range k.state {
		var parts []byte
		parts = append(parts, s...)
		total += len(parts)
	}
	return total
}

// The audited exception: shutdown fan-out where the receiver set is
// torn down and order is deliberately irrelevant.
func (k *kernel) drainAllowed(n *Node) {
	for p := range k.peers { //locus:vet-allow maporder fixture: deliberate allow exercises the suppression path
		_ = n.Cast(p, "mo.bye", nil)
	}
}

// Generic callees. Cast is the typed one-way the test config names as
// an order effect; announce is an ordinary generic helper that reaches
// the wire one call deep, called with explicit type arguments.
type OneWay[Msg any] struct{ Name string }

func Cast[Msg any](n *Node, to int, m OneWay[Msg], msg *Msg) error {
	return n.Cast(to, m.Name, msg)
}

func announce[Msg any](n *Node, to int, m OneWay[Msg], msg *Msg) {
	_ = Cast(n, to, m, msg)
}

type pingMsg struct{}

var mPing = OneWay[pingMsg]{Name: "mo.ping"}

func (k *kernel) broadcastTyped(n *Node) {
	for p := range k.peers { // want "order-observable wire send"
		_ = Cast(n, p, mPing, &pingMsg{})
	}
}

func (k *kernel) fanoutTyped(n *Node) {
	for p := range k.peers { // want "order-observable wire send"
		announce[pingMsg](n, p, mPing, &pingMsg{})
	}
}

func (k *kernel) drainTypedAllowed(n *Node) {
	for p := range k.peers { //locus:vet-allow maporder fixture: deliberate allow on the typed path
		_ = Cast(n, p, mPing, &pingMsg{})
	}
}
