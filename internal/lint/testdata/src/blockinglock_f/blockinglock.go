// Package blockinglock_f is a locus-vet fixture for the lock walk's
// blockinglock rule: no Node.Call exchange — raw, or through the
// generic typed Call over it — may run while a Kernel mutex is held,
// directly or through any statically resolvable callee. Kernel also
// sits in the test's lock hierarchy, after Cluster, as fs.Kernel sits
// in both of production's class lists.
package blockinglock_f

import "sync"

type Node struct{}

func (n *Node) Call(method string, payload any) (any, error) { return nil, nil }

type Kernel struct {
	mu   sync.Mutex
	node *Node
	size int
}

// okReleaseFirst snapshots under the mutex, releases, then exchanges.
func (k *Kernel) okReleaseFirst() (any, error) {
	k.mu.Lock()
	size := k.size
	k.mu.Unlock()
	return k.node.Call("probe", size)
}

// exchange blocks; callers holding the mutex inherit the violation
// through the call-graph fixpoint.
func (k *Kernel) exchange() {
	k.node.Call("probe", nil)
}

func (k *Kernel) badDirect() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.node.Call("probe", nil) // want "blocks on concurrent progress while holding blockinglock_f.Kernel"
}

func (k *Kernel) badTransitive() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.exchange() // want "may transitively block on concurrent progress while holding blockinglock_f.Kernel"
}

// Cluster precedes Kernel in the hierarchy; poll both blocks and takes
// its mutex.
type Cluster struct{ mu sync.Mutex }

func (c *Cluster) poll(n *Node) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n.Call("poll", nil)
}

// badBothRules holds Kernel, deferred Unlock and all, across a call
// that breaks both rules: one finding for each, on the one line.
func (k *Kernel) badBothRules(c *Cluster) {
	k.mu.Lock()
	defer k.mu.Unlock()
	c.poll(k.node) // want "call to Cluster.poll may acquire blockinglock_f.Cluster while holding blockinglock_f.Kernel" // want "may transitively block on concurrent progress while holding blockinglock_f.Kernel"
}

// allowedProbe exercises the suppression path.
func (k *Kernel) allowedProbe() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.node.Call("probe", nil) //locus:vet-allow blockinglock fixture: the held-lock probe is this case's point
}

// Generic callees. Call is the typed path the test config names as a
// blocking primitive; relay and Method.send are ordinary generic
// helpers whose effect is only known through the call-graph fixpoint —
// relay reached with explicit type arguments, send as a method of an
// instantiated generic type, whose object differs from the declared
// one the graph keys bodies by (types.Func.Origin).
type Method[Req, Resp any] struct{ Name string }

func Call[Req, Resp any](n *Node, m Method[Req, Resp], req *Req) (*Resp, error) {
	v, err := n.Call(m.Name, req)
	resp, _ := v.(*Resp)
	return resp, err
}

func relay[Req, Resp any](n *Node, m Method[Req, Resp], req *Req) {
	Call(n, m, req)
}

func (m Method[Req, Resp]) send(n *Node, req *Req) {
	Call(n, m, req)
}

type probeReq struct{}
type probeResp struct{}

var mProbe = Method[probeReq, probeResp]{Name: "probe"}

func (k *Kernel) badGenericDirect() {
	k.mu.Lock()
	defer k.mu.Unlock()
	Call(k.node, mProbe, &probeReq{}) // want "blocks on concurrent progress while holding blockinglock_f.Kernel"
}

func (k *Kernel) badGenericTransitive() {
	k.mu.Lock()
	defer k.mu.Unlock()
	relay[probeReq, probeResp](k.node, mProbe, &probeReq{}) // want "may transitively block on concurrent progress while holding blockinglock_f.Kernel"
}

func (k *Kernel) badGenericMethodTransitive() {
	k.mu.Lock()
	defer k.mu.Unlock()
	mProbe.send(k.node, &probeReq{}) // want "may transitively block on concurrent progress while holding blockinglock_f.Kernel"
}

func (k *Kernel) allowedGeneric() {
	k.mu.Lock()
	defer k.mu.Unlock()
	Call(k.node, mProbe, &probeReq{}) //locus:vet-allow blockinglock fixture: the held-lock typed probe is this case's point
}

// Manager is a guard class narrowed to one field: mu guards the site
// table and is taken by a link-down callback that can run inside a Call
// the manager itself made; protoMu is held for a whole protocol run,
// sends included, by design.
type Manager struct {
	mu      sync.Mutex
	protoMu sync.Mutex
	node    *Node
}

func (m *Manager) okProtocolRun() {
	m.protoMu.Lock()
	defer m.protoMu.Unlock()
	m.node.Call("poll", nil)
}

func (m *Manager) badTableHeld() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.node.Call("poll", nil) // want "blocks on concurrent progress while holding blockinglock_f.Manager.mu"
}
