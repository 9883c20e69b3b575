// Fault-injection plane for netsim.
//
// The LOCUS protocols are explicitly designed to survive a lossy
// transport without low-level acknowledgements: "a lost message closes
// the circuit" (§5.1), and every problem-oriented protocol in §2.3 must
// recover from the circuit reset that follows. The fault plane is the
// adversary that exercises those paths: a deterministic, seeded source
// of message drops, duplications, and bounded virtual-time delays, plus
// scripted fault points ("drop the 3rd commit request from site 2",
// "crash the callee after the handler ran but before the response was
// sent").
//
// Determinism: every probabilistic decision is a pure function of
// (seed, from, to, method, occurrence#), where occurrence# counts the
// sends between that (from, to, method) triple. Replaying the same
// workload against the same seed reproduces the same faults, message
// for message — which is what lets the chaos harness print a seed as a
// complete repro.
//
// A nil fault plane (the default) costs one atomic load per exchange;
// an enabled-but-zero-rate plane makes no decisions and injects
// nothing, so protocol message counts are bit-identical to a faultless
// network (pinned by internal/fs/protocolcost_test.go).
package netsim

import (
	"fmt"
	"sync"
)

// FaultAction is a scripted fault applied to one specific message.
type FaultAction int

const (
	// FaultNone is the zero action: no scripted fault.
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
	// FaultCrashBeforeReply crashes the callee after the handler has
	// run (the operation is applied, durably if the handler committed)
	// but before the response is sent. The caller observes
	// ErrCircuitClosed, after the callee's OnCrash callbacks and its
	// peers' link-down callbacks (the caller's own among them) have run
	// on the caller's goroutine.
	FaultCrashBeforeReply
)

func (a FaultAction) String() string {
	switch a {
	case FaultNone:
		return "none"
	case FaultDropRequest:
		return "drop-request"
	case FaultDropResponse:
		return "drop-response"
	case FaultDupRequest:
		return "dup-request"
	case FaultCrashBeforeReply:
		return "crash-before-reply"
	}
	return fmt.Sprintf("FaultAction(%d)", int(a))
}

// AnySite is the wildcard for FaultPoint.From / FaultPoint.To.
// (Site ids are 1-based everywhere in this repo.)
const AnySite SiteID = 0

// FaultPoint scripts one fault at an exact protocol moment: the Nth
// send matching (From, To, Method) suffers Action. Each point keeps its
// own match counter and fires exactly once.
type FaultPoint struct {
	From   SiteID // AnySite matches any sender
	To     SiteID // AnySite matches any destination
	Method string // "" matches any method
	Nth    int    // 1-based; 0 means 1st
	Action FaultAction
}

func (p FaultPoint) matches(from, to SiteID, method string) bool {
	if p.From != AnySite && p.From != from {
		return false
	}
	if p.To != AnySite && p.To != to {
		return false
	}
	return p.Method == "" || p.Method == method
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

// FaultConfig configures the fault plane.
type FaultConfig struct {
	Seed uint64
	// Rates applies to every directed link without an override.
	Rates FaultRates
	// Links overrides Rates for specific directed (from, to) pairs.
	Links map[[2]SiteID]FaultRates
	// Points are scripted one-shot faults, checked before the
	// probabilistic rates.
	Points []FaultPoint
	// TimeoutUs is the virtual time a caller burns discovering a lost
	// message (the circuit-reset timeout). Defaults to 5000µs.
	TimeoutUs int64
}

const defaultTimeoutUs = 5000

// Faults is an installed fault plane. All decision state (occurrence
// counters, per-point fire state) lives here, not in the Network, so
// tests can swap planes without disturbing traffic counters.
type Faults struct {
	cfg FaultConfig

	mu     sync.Mutex
	occ    map[occKey]uint64 // per-(from,to,method) send counter
	pocc   []int             // per-point match counters
	pfired []bool            // per-point fired flags
}

type occKey struct {
	from, to SiteID
	method   string
}

func newFaults(cfg FaultConfig) *Faults {
	if cfg.TimeoutUs <= 0 {
		cfg.TimeoutUs = defaultTimeoutUs
	}
	return &Faults{
		cfg:    cfg,
		occ:    make(map[occKey]uint64),
		pocc:   make([]int, len(cfg.Points)),
		pfired: make([]bool, len(cfg.Points)),
	}
}

// timeoutUs is the virtual cost of discovering a lost message.
func (f *Faults) timeoutUs() int64 {
	if f == nil { // a message lost with no fault plane installed
		return defaultTimeoutUs
	}
	return f.cfg.TimeoutUs
}

func (f *Faults) rates(from, to SiteID) FaultRates {
	if r, ok := f.cfg.Links[[2]SiteID{from, to}]; ok {
		return r
	}
	return f.cfg.Rates
}

// decision is the fault plan for one exchange, computed at send time.
type decision struct {
	action  FaultAction // FaultNone for the common path
	delayUs int64       // >0: charge this much virtual latency
}

// decide rolls the fate of one send. It is the only entry point on the
// hot path and is called with the plane already known non-nil.
func (f *Faults) decide(from, to SiteID, method string, isCall bool) decision {
	f.mu.Lock()
	k := occKey{from, to, method}
	f.occ[k]++
	occ := f.occ[k]

	// Scripted points take priority and fire exactly once.
	for i := range f.cfg.Points {
		p := &f.cfg.Points[i]
		if f.pfired[i] || !p.matches(from, to, method) {
			continue
		}
		f.pocc[i]++
		nth := p.Nth
		if nth <= 0 {
			nth = 1
		}
		if f.pocc[i] == nth {
			f.pfired[i] = true
			f.mu.Unlock()
			return decision{action: p.Action}
		}
	}
	r := f.rates(from, to)
	f.mu.Unlock()

	if r.zero() {
		return decision{}
	}
	var d decision
	if roll(f.cfg.Seed, k, occ, 1) < r.Drop {
		d.action = FaultDropRequest
	} else if isCall && roll(f.cfg.Seed, k, occ, 2) < r.Drop {
		// The response is a wire message too; it rolls independently.
		d.action = FaultDropResponse
	} else if roll(f.cfg.Seed, k, occ, 3) < r.Dup {
		d.action = FaultDupRequest
	}
	if r.Delay > 0 && roll(f.cfg.Seed, k, occ, 4) < r.Delay {
		d.delayUs = 1 + int64(hash(f.cfg.Seed, k, occ, 5)%uint64(max64(r.DelayMaxUs, 1)))
	}
	return d
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
// Passing a zero-rate, point-free config arms the plane without
// injecting anything (the zero-overhead off position verified by the
// protocol-cost tests).
func (nw *Network) EnableFaults(cfg FaultConfig) *Faults {
	f := newFaults(cfg)
	nw.faults.Store(f)
	return f
}

// DisableFaults removes the fault plane entirely.
func (nw *Network) DisableFaults() { nw.faults.Store(nil) }

// SetDedup toggles the callee-side at-most-once dedup tables
// network-wide. They are on by default; chaos regression tests switch
// them off to prove the harness catches retried-mutation replay.
func (nw *Network) SetDedup(on bool) { nw.dedupOff.Store(!on) }

// SetTrace installs fn as the wire-send observer (nil uninstalls). fn
// runs once per remote exchange at send time, in issue order; the
// deterministic-replay tests capture wire schedules through it. fn must
// be fast and must not send; it may crash a site, as the cut tests do,
// and a message to a site it crashed is lost, as a dropped one is.
func (nw *Network) SetTrace(fn func(from, to SiteID, method string)) {
	if fn == nil {
		nw.trace.Store(nil)
		return
	}
	nw.trace.Store(&fn)
}
