// Fault-injection plane and point observer for netsim.
//
// The LOCUS protocols are explicitly designed to survive a lossy
// transport without low-level acknowledgements: "a lost message closes
// the circuit" (§5.1), and every problem-oriented protocol in §2.3 must
// recover from the circuit reset that follows. Two adversaries exercise
// those paths. The fault plane is a deterministic, seeded source of
// message drops, duplications, and bounded virtual-time delays. The
// observer sees every point where a run can be interrupted — each
// request as it is sent, each reply before it is sent — numbered in
// program order, and says what happens to that message: a test records
// a script's points on one run and cuts one of them on the next.
//
// Determinism: every probabilistic decision is a pure function of
// (seed, from, to, method, occurrence#), where occurrence# counts the
// sends between that (from, to, method) triple. Replaying the same
// workload against the same seed reproduces the same faults, message
// for message — which is what lets the chaos harness print a seed as a
// complete repro. Sends, calls and handlers all run on the caller's
// goroutine, so point i of one script is the same message on every run.
//
// With neither installed a send costs one atomic load for each; an
// enabled-but-zero-rate plane makes no decisions and injects nothing,
// so protocol message counts are bit-identical to a faultless network
// (pinned by internal/fs/protocolcost_test.go).
package netsim

import (
	"sync"
	"sync/atomic"
)

// FaultAction is what happens to one message.
type FaultAction int

const (
	// FaultNone is the zero action: the message goes through.
	FaultNone FaultAction = iota
	// FaultDropRequest drops the request on the wire; the caller times
	// out with ErrTimeout and the virtual circuit resets.
	FaultDropRequest
	// FaultDropResponse delivers the request and runs the handler, then
	// drops the response; the caller times out with ErrTimeout. This is
	// the classic at-most-once hazard: the operation happened, the
	// caller cannot know it.
	FaultDropResponse
	// FaultDupRequest delivers the request twice (one extra wire
	// message), the duplicate right behind the original and before the
	// one reply. Without callee-side dedup the handler runs twice.
	FaultDupRequest
)

// PointKind says which message of an exchange a Point is.
type PointKind uint8

const (
	// PointRequest is a message as it is sent: a remote Call's request,
	// each retransmission a point of its own, or a Cast.
	PointRequest PointKind = iota + 1
	// PointReply is a Call's reply, after the handler returned and
	// before the reply is sent.
	PointReply
)

// Point is one place where a run can be interrupted: one message.
type Point struct {
	Seq      uint64 // its place in the run, from 1 when the observer was installed
	Kind     PointKind
	From, To SiteID // the message's sender and destination: a reply's From is the callee
	Method   string
}

// observer is an installed observer and the count of the points it saw.
type observer struct {
	fn  func(Point) FaultAction
	seq atomic.Uint64
}

// SetObserver installs fn as the observer of every point (nil
// uninstalls); Seq starts at 1. fn runs on the sending goroutine, in
// program order, and its action applies to that message before the
// fault plane's roll: FaultDropRequest or FaultDupRequest at a request,
// FaultDropResponse at a reply. The roll still runs, so the rates'
// occurrence counters do not move. A drop is charged as the fault
// plane's are. fn must not send; it may crash a site. A request to a
// site it crashed is lost, as a dropped one is, while one whose sender
// it crashed is still delivered; a callee it crashed at the reply never
// answers (ErrCircuitClosed, after its handler ran).
func (nw *Network) SetObserver(fn func(Point) FaultAction) {
	if fn == nil {
		nw.observer.Store(nil)
		return
	}
	nw.observer.Store(&observer{fn: fn})
}

// see shows one point to the observer o and returns its action,
// FaultNone when o is nil (none is installed).
func (o *observer) see(kind PointKind, from, to SiteID, method string) FaultAction {
	if o == nil {
		return FaultNone
	}
	return o.fn(Point{Seq: o.seq.Add(1), Kind: kind, From: from, To: to, Method: method})
}

// FaultRates are probabilistic per-message fault probabilities. A
// message is first rolled for drop, then (if kept) for duplication,
// then for delay; each roll is an independent hash of the message
// coordinates.
type FaultRates struct {
	Drop       float64 // P(message lost); Call requests and responses roll independently
	Dup        float64 // P(request delivered twice)
	Delay      float64 // P(message delayed)
	DelayMaxUs int64   // delay is uniform in [1, DelayMaxUs] virtual µs
}

func (r FaultRates) zero() bool {
	return r.Drop == 0 && r.Dup == 0 && r.Delay == 0
}

// FaultConfig configures the fault plane: its rates apply to every
// directed link.
type FaultConfig struct {
	Seed  uint64
	Rates FaultRates
}

// timeoutUs is the virtual time a caller burns discovering a lost
// message (the circuit-reset timeout).
const timeoutUs = 5000

// Faults is an installed fault plane. Its occurrence counters live
// here, not in the Network, so tests can swap planes without disturbing
// traffic counters.
type Faults struct {
	cfg FaultConfig

	mu  sync.Mutex
	occ map[occKey]uint64 // per-(from,to,method) send counter
}

type occKey struct {
	from, to SiteID
	method   string
}

// decide rolls the fate of one send: its action and the virtual delay
// to charge, if any.
func (f *Faults) decide(from, to SiteID, method string, isCall bool) (act FaultAction, delayUs int64) {
	f.mu.Lock()
	k := occKey{from, to, method}
	f.occ[k]++
	occ := f.occ[k]
	f.mu.Unlock()

	r := f.cfg.Rates
	if r.zero() {
		return FaultNone, 0
	}
	if roll(f.cfg.Seed, k, occ, 1) < r.Drop {
		act = FaultDropRequest
	} else if isCall && roll(f.cfg.Seed, k, occ, 2) < r.Drop {
		// The response is a wire message too; it rolls independently.
		act = FaultDropResponse
	} else if roll(f.cfg.Seed, k, occ, 3) < r.Dup {
		act = FaultDupRequest
	}
	if r.Delay > 0 && roll(f.cfg.Seed, k, occ, 4) < r.Delay {
		delayUs = 1 + int64(hash(f.cfg.Seed, k, occ, 5)%uint64(max(r.DelayMaxUs, 1)))
	}
	return act, delayUs
}

// hash mixes the message coordinates with the seed (splitmix64
// finalizer). Pure function: same inputs, same fault, any goroutine
// interleaving.
func hash(seed uint64, k occKey, occ uint64, salt uint64) uint64 {
	h := seed
	h ^= uint64(k.from) * 0x9e3779b97f4a7c15
	h ^= uint64(k.to) * 0xbf58476d1ce4e5b9
	for i := 0; i < len(k.method); i++ {
		h = h*1099511628211 ^ uint64(k.method[i])
	}
	h ^= occ<<17 ^ salt<<1
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// roll maps the hash to [0, 1).
func roll(seed uint64, k occKey, occ uint64, salt uint64) float64 {
	return float64(hash(seed, k, occ, salt)>>11) / float64(1<<53)
}

// EnableFaults installs a fault plane built from cfg and returns it.
// Passing a zero-rate config arms the plane without injecting anything
// (the zero-overhead off position verified by the protocol-cost tests).
func (nw *Network) EnableFaults(cfg FaultConfig) *Faults {
	f := &Faults{cfg: cfg, occ: make(map[occKey]uint64)}
	nw.faults.Store(f)
	return f
}

// DisableFaults removes the fault plane entirely.
func (nw *Network) DisableFaults() { nw.faults.Store(nil) }

// SetDedup toggles the callee-side at-most-once dedup tables
// network-wide. They are on by default; chaos regression tests switch
// them off to prove the harness catches retried-mutation replay.
func (nw *Network) SetDedup(on bool) { nw.dedupOff.Store(!on) }
