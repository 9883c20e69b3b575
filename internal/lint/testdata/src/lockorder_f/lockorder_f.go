// Package lockorder_f is a locus-vet fixture: the test config declares
// the hierarchy Outer → Middle → Inner. Acquiring an earlier class
// while holding a later one must be flagged, directly or through the
// call graph.
package lockorder_f

import "sync"

type Outer struct{ mu sync.Mutex }

type Middle struct{ mu sync.RWMutex }

type Inner struct{ sync.Mutex }

func okNested(o *Outer, m *Middle, i *Inner) {
	o.mu.Lock()
	defer o.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	i.Lock()
	i.Unlock()
}

func badDirect(o *Outer, i *Inner) {
	i.Lock()
	defer i.Unlock()
	o.mu.Lock() // want "acquires lockorder_f.Outer while holding lockorder_f.Inner"
	o.mu.Unlock()
}

func badRLock(o *Outer, m *Middle) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o.mu.Lock() // want "acquires lockorder_f.Outer while holding lockorder_f.Middle"
	o.mu.Unlock()
}

// okSequential releases before acquiring the earlier class: no overlap,
// no inversion.
func okSequential(o *Outer, i *Inner) {
	i.Lock()
	i.Unlock()
	o.mu.Lock()
	o.mu.Unlock()
}

func lockMiddle(m *Middle) {
	m.mu.Lock()
	defer m.mu.Unlock()
}

// callsLockMiddle exists to force the inversion through two call-graph
// hops.
func callsLockMiddle(m *Middle) {
	lockMiddle(m)
}

func badViaCall(m *Middle, i *Inner) {
	i.Lock()
	defer i.Unlock()
	callsLockMiddle(m) // want "call to callsLockMiddle may acquire lockorder_f.Middle while holding lockorder_f.Inner"
}

func okViaCall(o *Outer, m *Middle) {
	o.mu.Lock()
	defer o.mu.Unlock()
	callsLockMiddle(m)
}

func okSuppressed(o *Outer, i *Inner) {
	i.Lock()
	defer i.Unlock()
	o.mu.Lock() //locus:vet-allow lockorder fixture: documented exception
	o.mu.Unlock()
}
