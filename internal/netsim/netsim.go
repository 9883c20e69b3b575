// Package netsim simulates the network substrate LOCUS ran on: a set of
// sites connected by a fully-connected (within a partition) message
// layer with virtual-circuit semantics.
//
// The LOCUS paper (§5.1) describes the low-level transport as a
// collection of virtual circuits delivering messages between sites in
// order; a lost message closes the circuit, and circuit failure removes
// the peer from the local site's view of the partition. netsim
// reproduces exactly those semantics in-process:
//
//   - Call implements the specialized request/response protocols of
//     §2.3 ("There are no other messages involved; no acknowledgements,
//     flow control or any other underlying mechanism"): one request
//     message, one response message. It is a procedure call: the
//     destination's handler runs on the caller's goroutine (Figure 1 is
//     one thread of control), and has returned when Call does.
//   - Cast implements one-way messages with low-level acknowledgement
//     only (the write protocol of §2.3.5): one message on the wire.
//     The sender delivers it: the destination's handler has run, on
//     the caller's goroutine, by the time Cast returns.
//   - Breaking a link (or crashing a site) closes the circuit: a Call
//     whose circuit closed while its handler ran fails with
//     ErrCircuitClosed when the handler returns, and both endpoints are
//     notified, which is what triggers the reconfiguration protocols of
//     §5.
//
// All traffic is metered (message counts per method, bytes, simulated
// CPU microseconds) so the benchmark harness can regenerate the paper's
// protocol costs without real hardware.
//
// No site has a queue or a goroutine, and the network keeps no record
// of exchanges in progress: an exchange is a stack frame of its caller.
// Nothing is asynchronous: a link-down callback runs on the goroutine
// that closed the circuit and has returned when SetLink or Crash does.
//
// The send path is lock-free: connectivity lives in an immutable
// copy-on-write snapshot (one atomic load per exchange) and counters
// are plain atomics. Network.mu is only taken by topology mutations
// (AddSite, SetLink, Crash, Restart), which republish the snapshot.
package netsim

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/simclock"
	"repro/internal/vclock"
)

// SiteID identifies a site. It aliases vclock.SiteID so version vectors
// and the transport agree on site naming.
type SiteID = vclock.SiteID

// Errors returned by the transport.
var (
	// ErrUnreachable reports that no virtual circuit can be opened to
	// the destination: it is down or in a different partition.
	ErrUnreachable = errors.New("netsim: site unreachable")
	// ErrCircuitClosed reports that the virtual circuit failed while an
	// exchange was in flight; the caller cannot know whether the remote
	// operation happened.
	ErrCircuitClosed = errors.New("netsim: virtual circuit closed")
	// ErrNoHandler reports that the destination has no handler bound
	// for the requested method.
	ErrNoHandler = errors.New("netsim: no handler for method")
	// ErrSiteDown reports an operation on a crashed site.
	ErrSiteDown = errors.New("netsim: site is down")
	// ErrTimeout reports that a message was lost on the wire and the
	// circuit reset after the timeout (§5.1: "a lost message closes the
	// circuit"). Unlike ErrUnreachable the destination may well be up;
	// the exchange is worth retrying after a backoff.
	ErrTimeout = errors.New("netsim: timed out (message lost, circuit reset)")
	// ErrCrashed reports that the destination site is down (crashed),
	// as opposed to partitioned away. It wraps ErrUnreachable so
	// existing errors.Is(err, ErrUnreachable) call sites keep treating
	// it as "no circuit", while retry policy can tell the cases apart.
	ErrCrashed = fmt.Errorf("%w: site crashed", ErrUnreachable)
)

// Handler services one inbound message. from is the requesting site.
// For Cast messages the returned value is discarded. Payloads and
// replies cross by reference, never copied: who may keep or write the
// buffers a message carries is part of that message type's contract.
type Handler func(from SiteID, payload any) (any, error)

// Sizer lets a payload report its approximate wire size in bytes for
// byte accounting. Payloads that do not implement Sizer are charged
// defaultWireSize.
type Sizer interface{ WireSize() int }

const (
	defaultWireSize = 200 // bytes charged for an unsized payload
	headerWireSize  = 64  // bytes charged per message for headers
)

// CostModel assigns simulated CPU microseconds to primitive operations.
// The defaults are calibrated so the headline ratios reported in the
// paper hold (remote page access ≈ 2× the CPU of local access —
// §2.2.1 footnote): a local page access costs PageCPU and a remote one
// costs PageCPU at the storage site plus 2×MsgCPU of protocol work.
type CostModel struct {
	MsgCPU    int64 // CPU to build+send or receive+decode one message
	PerKBCPU  int64 // additional CPU per KB of payload moved
	LocalCall int64 // CPU of a purely local kernel procedure call
	PageCPU   int64 // CPU of buffer management + copy for one page
	DiskUs    int64 // latency of one disk page transfer
}

// DefaultCosts is the calibrated cost model used by the benchmarks.
func DefaultCosts() CostModel {
	return CostModel{
		MsgCPU:    500,
		PerKBCPU:  100,
		LocalCall: 50,
		PageCPU:   1000,
		DiskUs:    15000,
	}
}

// Stats accumulates network-wide traffic and simulated cost counters.
// Charging cost also advances the network's simulated clock, so virtual
// time moves exactly as fast as simulated work is done. All counters
// are atomics: charging an exchange takes no lock.
type Stats struct {
	clock  *simclock.Clock
	msgs   atomic.Int64
	bytes  atomic.Int64
	cpuUs  atomic.Int64
	diskUs atomic.Int64
	casts  atomic.Int64
	calls  atomic.Int64
	// byMeth maps method name -> *atomic.Int64 message count.
	byMeth sync.Map

	// Using-site page-cache and readahead effectiveness counters,
	// charged by the fs layer (§2.2.1 kernel buffer management).
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheInvals atomic.Int64
	raSent      atomic.Int64
	raUsed      atomic.Int64

	// Bulk-propagation counters, charged by the fs layer: windows of
	// physical pages shipped by the windowed pull protocol
	// (fs.pullopen piggyback + fs.pullpages).
	pullWins  atomic.Int64
	pullPages atomic.Int64

	// Lease-layer counters, charged by the fs layer: delegations and
	// writer leases granted by a CSS, leases recalled by revocation
	// callbacks, and batched revoke rounds (one round per writer
	// transition, however many delegates it recalls).
	leasesGranted  atomic.Int64
	leasesRevoked  atomic.Int64
	batchedRevokes atomic.Int64

	// Fault-plane counters: messages lost/duplicated/delayed by
	// injected faults, and virtual-circuit resets (exchanges whose
	// circuit closed under them, or that a fault timed out).
	fltDropped atomic.Int64
	fltDuped   atomic.Int64
	fltDelayed atomic.Int64
	resets     atomic.Int64

	// §5.6 failure-action cleanup counters, charged by the proc and
	// txn layers when a partition change or crash forces resource
	// teardown: orphaned-child notices (SIGPARENTERR/SIGCHILDERR),
	// pipe endpoints torn down (EOF/broken delivered), transactions
	// aborted by partition, and cross-partition signals queued,
	// replayed after merge, or expired (target definitively dead).
	orphanNotices atomic.Int64
	pipeTeardowns atomic.Int64
	txnPartAborts atomic.Int64
	sigsQueued    atomic.Int64
	sigsReplayed  atomic.Int64
	sigsExpired   atomic.Int64
}

// Snapshot is an immutable copy of the counters at a point in time.
type Snapshot struct {
	Msgs     int64
	Bytes    int64
	ByMethod map[string]int64
	CPUUs    int64
	DiskUs   int64
	Casts    int64
	Calls    int64

	// CacheHits/CacheMisses count using-site page-cache lookups;
	// CacheInvals counts pages discarded by commit/propagation
	// invalidation.
	CacheHits   int64
	CacheMisses int64
	CacheInvals int64
	// RAPagesSent counts pages piggybacked on read responses by
	// streaming readahead; RAPagesUsed counts those later served to a
	// reader (readahead efficiency = used/sent).
	RAPagesSent int64
	RAPagesUsed int64

	// PullWindowsSent counts bulk-propagation windows shipped by the
	// windowed pull protocol; PullPagesSent counts the physical pages
	// they carried (pages per window = PullPagesSent/PullWindowsSent).
	PullWindowsSent int64
	PullPagesSent   int64

	// LeasesGranted counts read delegations and writer leases granted
	// by a CSS; LeasesRevoked counts read delegations recalled by
	// batched revoke rounds plus writer leases given back to a writer
	// recall; BatchedRevokes counts batched revoke rounds.
	LeasesGranted  int64
	LeasesRevoked  int64
	BatchedRevokes int64

	// MsgsDropped/MsgsDuped/MsgsDelayed count messages lost,
	// duplicated, and delayed by the fault plane; CircuitResets counts
	// virtual-circuit failures observed by in-flight exchanges
	// (topology teardown and fault-induced timeouts).
	MsgsDropped   int64
	MsgsDuped     int64
	MsgsDelayed   int64
	CircuitResets int64

	// §5.6 failure-action cleanup counters. OrphanNotices counts
	// SIGPARENTERR/SIGCHILDERR orphan notifications generated by
	// partition-change cleanup; PipeTeardowns counts pipe endpoints
	// forcibly resolved (EOF or broken) after losing their far site;
	// TxnPartitionAborts counts transactions aborted because a locked
	// file's storage site left the partition; SignalsQueued/
	// SignalsReplayed/SignalsExpired track cross-partition signal
	// delivery (queued at the sender, replayed after merge, or dropped
	// because the target process is definitively dead).
	OrphanNotices      int64
	PipeTeardowns      int64
	TxnPartitionAborts int64
	SignalsQueued      int64
	SignalsReplayed    int64
	SignalsExpired     int64
}

func (s *Stats) snapshot() Snapshot {
	by := make(map[string]int64)
	s.byMeth.Range(func(k, v any) bool {
		by[k.(string)] = v.(*atomic.Int64).Load()
		return true
	})
	return Snapshot{
		Msgs: s.msgs.Load(), Bytes: s.bytes.Load(), ByMethod: by,
		CPUUs: s.cpuUs.Load(), DiskUs: s.diskUs.Load(),
		Casts: s.casts.Load(), Calls: s.calls.Load(),
		CacheHits: s.cacheHits.Load(), CacheMisses: s.cacheMisses.Load(),
		CacheInvals: s.cacheInvals.Load(),
		RAPagesSent: s.raSent.Load(), RAPagesUsed: s.raUsed.Load(),
		PullWindowsSent: s.pullWins.Load(), PullPagesSent: s.pullPages.Load(),
		LeasesGranted: s.leasesGranted.Load(), LeasesRevoked: s.leasesRevoked.Load(), BatchedRevokes: s.batchedRevokes.Load(),
		MsgsDropped: s.fltDropped.Load(), MsgsDuped: s.fltDuped.Load(),
		MsgsDelayed: s.fltDelayed.Load(), CircuitResets: s.resets.Load(),
		OrphanNotices: s.orphanNotices.Load(), PipeTeardowns: s.pipeTeardowns.Load(),
		TxnPartitionAborts: s.txnPartAborts.Load(), SignalsQueued: s.sigsQueued.Load(),
		SignalsReplayed: s.sigsReplayed.Load(), SignalsExpired: s.sigsExpired.Load(),
	}
}

func (s *Stats) methCounter(method string) *atomic.Int64 {
	if c, ok := s.byMeth.Load(method); ok {
		return c.(*atomic.Int64)
	}
	c, _ := s.byMeth.LoadOrStore(method, new(atomic.Int64))
	return c.(*atomic.Int64)
}

// chargeExchange records one protocol exchange — n wire messages of the
// given method (2 for a Call, 1 for a Cast), the payload bytes, and the
// protocol CPU — in one lock-free pass, and advances virtual time.
func (s *Stats) chargeExchange(method string, n, bytes, cpu int64, call bool) {
	s.msgs.Add(n)
	s.bytes.Add(bytes)
	s.methCounter(method).Add(n)
	if call {
		s.calls.Add(1)
	} else {
		s.casts.Add(1)
	}
	s.cpuUs.Add(cpu)
	s.tick(cpu)
}

// chargeResponse meters a data-carrying Call response (only payloads
// implementing Sizer — page transfers — are charged; control responses
// ride in the per-message header allowance charged at send time).
func (s *Stats) chargeResponse(bytes, cpu int64) {
	s.bytes.Add(bytes)
	s.cpuUs.Add(cpu)
	s.tick(cpu)
}

// AddCPU charges simulated CPU microseconds and advances virtual time.
func (s *Stats) AddCPU(us int64) {
	s.cpuUs.Add(us)
	s.tick(us)
}

// AddDisk charges simulated disk microseconds and advances virtual
// time.
func (s *Stats) AddDisk(us int64) {
	s.diskUs.Add(us)
	s.tick(us)
}

// AddCacheHit records a page served from a using-site page cache.
func (s *Stats) AddCacheHit() { s.cacheHits.Add(1) }

// AddCacheMiss records a using-site page-cache lookup that missed.
func (s *Stats) AddCacheMiss() { s.cacheMisses.Add(1) }

// AddCacheInvals records n pages discarded by cache invalidation.
func (s *Stats) AddCacheInvals(n int) { s.cacheInvals.Add(int64(n)) }

// AddReadaheadSent records n pages piggybacked by streaming readahead.
func (s *Stats) AddReadaheadSent(n int) { s.raSent.Add(int64(n)) }

// AddReadaheadUsed records n readahead pages later served to a reader.
func (s *Stats) AddReadaheadUsed(n int) { s.raUsed.Add(int64(n)) }

// AddPullWindow records one bulk-propagation window carrying n physical
// pages.
func (s *Stats) AddPullWindow(n int) {
	s.pullWins.Add(1)
	s.pullPages.Add(int64(n))
}

// AddLeaseGranted records one read delegation or writer lease granted
// by a CSS.
func (s *Stats) AddLeaseGranted() { s.leasesGranted.Add(1) }

// AddLeasesRevoked records n leases recalled by revocation callbacks.
func (s *Stats) AddLeasesRevoked(n int) { s.leasesRevoked.Add(int64(n)) }

// AddBatchedRevoke records one batched revoke round.
func (s *Stats) AddBatchedRevoke() { s.batchedRevokes.Add(1) }

// AddOrphanNotices records n SIGPARENTERR/SIGCHILDERR orphan notices
// generated by §5.6 partition-change cleanup.
func (s *Stats) AddOrphanNotices(n int) { s.orphanNotices.Add(int64(n)) }

// AddPipeTeardowns records n pipe endpoints forcibly resolved (EOF or
// broken) after losing their far site.
func (s *Stats) AddPipeTeardowns(n int) { s.pipeTeardowns.Add(int64(n)) }

// AddTxnPartitionAborts records n transactions aborted because a locked
// file's storage site left the partition.
func (s *Stats) AddTxnPartitionAborts(n int) { s.txnPartAborts.Add(int64(n)) }

// AddSignalsQueued records one cross-partition signal queued at the
// sender for replay after merge.
func (s *Stats) AddSignalsQueued() { s.sigsQueued.Add(1) }

// AddSignalsReplayed records n queued signals delivered after merge.
func (s *Stats) AddSignalsReplayed(n int) { s.sigsReplayed.Add(int64(n)) }

// AddSignalsExpired records n queued signals dropped because the target
// process is definitively dead.
func (s *Stats) AddSignalsExpired(n int) { s.sigsExpired.Add(int64(n)) }

// addFaultDrop counts a message lost to injected loss; the caller's
// circuit resets after timeoutUs of virtual time.
func (s *Stats) addFaultDrop(timeoutUs int64) {
	s.fltDropped.Add(1)
	s.resets.Add(1)
	s.tick(timeoutUs)
}

// addFaultDup counts a duplicated message: one more on the wire.
func (s *Stats) addFaultDup(method string) {
	s.msgs.Add(1)
	s.methCounter(method).Add(1)
	s.fltDuped.Add(1)
}

// addFaultDelay counts a delayed message and advances virtual time by
// the injected latency.
func (s *Stats) addFaultDelay(us int64) {
	s.fltDelayed.Add(1)
	s.tick(us)
}

// addReset counts a Call whose circuit closed while its handler ran.
func (s *Stats) addReset() { s.resets.Add(1) }

// tick advances the simulated clock, when one is attached.
func (s *Stats) tick(us int64) {
	if s.clock != nil {
		s.clock.Advance(us)
	}
}

// Sub returns the counter deltas between a later snapshot b and s.
func (b Snapshot) Sub(a Snapshot) Snapshot {
	by := make(map[string]int64)
	for k, v := range b.ByMethod {
		if d := v - a.ByMethod[k]; d != 0 {
			by[k] = d
		}
	}
	return Snapshot{
		Msgs: b.Msgs - a.Msgs, Bytes: b.Bytes - a.Bytes, ByMethod: by,
		CPUUs: b.CPUUs - a.CPUUs, DiskUs: b.DiskUs - a.DiskUs,
		Casts: b.Casts - a.Casts, Calls: b.Calls - a.Calls,
		CacheHits: b.CacheHits - a.CacheHits, CacheMisses: b.CacheMisses - a.CacheMisses,
		CacheInvals: b.CacheInvals - a.CacheInvals,
		RAPagesSent: b.RAPagesSent - a.RAPagesSent, RAPagesUsed: b.RAPagesUsed - a.RAPagesUsed,
		PullWindowsSent:    b.PullWindowsSent - a.PullWindowsSent,
		PullPagesSent:      b.PullPagesSent - a.PullPagesSent,
		LeasesGranted:      b.LeasesGranted - a.LeasesGranted,
		LeasesRevoked:      b.LeasesRevoked - a.LeasesRevoked,
		BatchedRevokes:     b.BatchedRevokes - a.BatchedRevokes,
		MsgsDropped:        b.MsgsDropped - a.MsgsDropped,
		MsgsDuped:          b.MsgsDuped - a.MsgsDuped,
		MsgsDelayed:        b.MsgsDelayed - a.MsgsDelayed,
		CircuitResets:      b.CircuitResets - a.CircuitResets,
		OrphanNotices:      b.OrphanNotices - a.OrphanNotices,
		PipeTeardowns:      b.PipeTeardowns - a.PipeTeardowns,
		TxnPartitionAborts: b.TxnPartitionAborts - a.TxnPartitionAborts,
		SignalsQueued:      b.SignalsQueued - a.SignalsQueued,
		SignalsReplayed:    b.SignalsReplayed - a.SignalsReplayed,
		SignalsExpired:     b.SignalsExpired - a.SignalsExpired,
	}
}

// connView is an immutable snapshot of the topology: the sites that
// exist, which are up, and which links carry a circuit. The send path
// reads it with a single atomic load; topology mutations rebuild and
// republish it under Network.mu.
type connView struct {
	nodes map[SiteID]*Node
	up    map[SiteID]bool
	link  map[SiteID]map[SiteID]linkState
}

// linkState is the link between two sites. closes counts the times its
// virtual circuit has closed — the link went down, or either site
// crashed — so two views show the same circuit only where the link is
// up in both with equal counts: a link that went down and came back
// carries a new circuit, not the old one.
type linkState struct {
	up     bool
	closes int64
}

func (v *connView) connected(a, b SiteID) bool {
	if v == nil || !v.up[a] || !v.up[b] {
		return false
	}
	if a == b {
		return true
	}
	return v.link[a][b].up
}

// Network is the simulated internetwork: a set of sites and a symmetric
// connectivity relation. The high-level LOCUS protocols assume the
// network is transitively connected within a partition (§5.1); the
// helpers PartitionGroups and HealAll maintain that invariant, while
// SetLink allows deliberately non-transitive configurations for testing
// the partition protocol.
type Network struct {
	// mu guards the canonical topology maps below; the hot send path
	// never takes it (it reads the conn snapshot instead).
	mu    sync.Mutex
	nodes map[SiteID]*Node
	// link[a][b] is the link between a and b (symmetric).
	link map[SiteID]map[SiteID]linkState
	up   map[SiteID]bool

	// conn is the published copy-on-write topology snapshot.
	conn atomic.Pointer[connView]

	stats Stats
	clock *simclock.Clock
	cost  CostModel

	// offer paces Quiesce's offer of the processor to the runtime.
	offer struct {
		calls atomic.Uint64
		// mu guards the rest; a Quiesce that finds it held skips its read.
		mu     sync.Mutex
		allocs [1]metrics.Sample // /gc/heap/allocs:bytes, read in place
		at     uint64            // its value at the last offer
	}
	// closed is set by Close: no circuit carries a message afterwards.
	closed atomic.Bool

	// faults is the installed fault plane; nil (the default) costs one
	// atomic load per exchange and injects nothing.
	faults atomic.Pointer[Faults]
	// dedupOff disables the callee-side at-most-once dedup tables
	// (chaos regression testing only).
	dedupOff atomic.Bool
	// trace, when set, observes every remote send in issue order; the
	// determinism tests use it to capture the wire schedule two runs
	// must reproduce byte for byte.
	trace atomic.Pointer[func(from, to SiteID, method string)]
}

// New creates an empty network with the given cost model.
func New(cost CostModel) *Network {
	nw := &Network{
		nodes: make(map[SiteID]*Node),
		link:  make(map[SiteID]map[SiteID]linkState),
		up:    make(map[SiteID]bool),
		clock: simclock.New(),
		cost:  cost,
	}
	nw.stats.clock = nw.clock
	nw.offer.allocs[0].Name = "/gc/heap/allocs:bytes"
	nw.publishLocked()
	return nw
}

// publishLocked rebuilds and publishes the connectivity snapshot from
// the canonical maps. Callers hold nw.mu.
func (nw *Network) publishLocked() {
	v := &connView{
		nodes: make(map[SiteID]*Node, len(nw.nodes)),
		up:    make(map[SiteID]bool, len(nw.up)),
		link:  make(map[SiteID]map[SiteID]linkState, len(nw.link)),
	}
	for id, n := range nw.nodes {
		v.nodes[id] = n
	}
	for id, u := range nw.up {
		v.up[id] = u
	}
	for a, row := range nw.link {
		cp := make(map[SiteID]linkState, len(row))
		for b, c := range row {
			cp[b] = c
		}
		v.link[a] = cp
	}
	nw.conn.Store(v)
}

func (nw *Network) view() *connView { return nw.conn.Load() }

// Cost returns the network's cost model.
func (nw *Network) Cost() CostModel { return nw.cost }

// Clock returns the network's simulated clock. It advances as simulated
// cost (CPU, disk, messages) is charged, by the fault plane's timeouts
// and delays, and on nothing else; protocol layers use it instead of
// the wall clock for timestamps.
func (nw *Network) Clock() *simclock.Clock { return nw.clock }

// Stats returns a snapshot of the traffic counters.
func (nw *Network) Stats() Snapshot { return nw.stats.snapshot() }

// Meter charges CPU/disk cost directly (used by the storage layer).
func (nw *Network) Meter() *Stats { return &nw.stats }

// CostUs returns the total charged simulated cost (CPU + disk virtual
// microseconds) so far. Clock().NowUs() is this plus the fault plane's
// timeouts and injected delays; both are functions of the schedule, so
// deltas of either replay byte-identically for a deterministic schedule
// — the workload engine's latency histograms depend on that.
func (nw *Network) CostUs() int64 {
	return nw.stats.cpuUs.Load() + nw.stats.diskUs.Load()
}

// AddSite creates a node for site id, fully connected to all existing
// sites; it starts nothing. Adding an existing id panics: site identity
// is configuration, not runtime data.
func (nw *Network) AddSite(id SiteID) *Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if _, dup := nw.nodes[id]; dup {
		// invariant: site identity is configuration, not runtime data;
		// a duplicate id is a programming error, not a recoverable state.
		panic(fmt.Sprintf("netsim: duplicate site %d", id))
	}
	n := &Node{
		id:       id,
		nw:       nw,
		handlers: make(map[string]Handler),
		dedup:    make(map[SiteID]*dedupTable),
	}
	nw.nodes[id] = n
	nw.up[id] = true
	nw.link[id] = make(map[SiteID]linkState)
	for other := range nw.nodes {
		if other != id {
			nw.link[id][other] = linkState{up: true}
			nw.link[other][id] = linkState{up: true}
		}
	}
	nw.publishLocked()
	return n
}

// Node returns the node for a site, or nil if it was never added.
func (nw *Network) Node(id SiteID) *Node {
	if v := nw.view(); v != nil {
		return v.nodes[id]
	}
	return nil
}

// Quiesce waits for nothing: nothing outlives the call that started it
// (a Cast's handler has run when Cast returns, a link-down callback
// when SetLink or Crash does), so no caller needs it to see an effect.
//
// It is the op boundary of a driver that never blocks (one goroutine,
// every exchange a procedure call), and the one place such a driver
// offers the processor to the runtime: with a single P the
// collector's background worker otherwise runs only at the 10 ms
// preemption tick, a mark phase lasts that long however fast the driver
// allocates, and everything allocated meanwhile is allocated live. The
// offer is paced by allocation, not by call count: every offerEvery-th
// call reads the process's allocated-bytes counter and yields once if
// offerBytes or more were allocated since the last yield, so a driver
// that allocates little pays a counter read per offerEvery calls and
// never yields, and no driver yields more than once per offerBytes.
func (nw *Network) Quiesce() {
	if nw.offer.calls.Add(1)%offerEvery == 0 && nw.offer.mu.TryLock() {
		metrics.Read(nw.offer.allocs[:])
		now := nw.offer.allocs[0].Value.Uint64()
		due := now-nw.offer.at >= offerBytes
		if due {
			nw.offer.at = now
		}
		nw.offer.mu.Unlock()
		if due {
			runtime.Gosched()
		}
	}
}

const (
	// offerEvery is how many Quiesce calls share one read of the
	// allocation counter (≈ 350 ns a read, so ≈ 11 ns a call).
	offerEvery = 32
	// offerBytes is the allocation that earns one yield: about what the
	// repository benchmark's workloads allocate during one mark phase
	// when the worker is scheduled promptly, so a phase ends within that
	// much allocation instead of at the next preemption tick. Yielding
	// on every call was measured and rejected (DESIGN §9).
	offerBytes = 4 << 20
)

// Close shuts the network: remote Calls and Casts fail afterwards with
// ErrUnreachable. Nothing needs stopping; exchanges in flight finish.
func (nw *Network) Close() { nw.closed.Store(true) }

// Sites returns all site ids ever added, in ascending order.
func (nw *Network) Sites() []SiteID {
	v := nw.view()
	out := make([]SiteID, 0, len(v.nodes))
	for id := range v.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Connected reports whether a working circuit exists between a and b.
// A site is always connected to itself while it is up.
func (nw *Network) Connected(a, b SiteID) bool {
	return nw.view().connected(a, b)
}

// Up reports whether the site is running (not crashed).
func (nw *Network) Up(id SiteID) bool {
	v := nw.view()
	return v != nil && v.up[id]
}

// SetLink sets the (symmetric) connectivity between two sites. Taking a
// link down closes the virtual circuit: an exchange across it fails
// when its handler returns, and both endpoints' OnLinkDown callbacks
// run — a's (told of b), then b's — before SetLink returns.
func (nw *Network) SetLink(a, b SiteID, up bool) {
	nw.mu.Lock()
	c := nw.link[a][b]
	closed := c.up && !up
	if closed {
		c.closes++
	}
	c.up = up
	nw.link[a][b], nw.link[b][a] = c, c
	nw.publishLocked()
	na, nb := nw.nodes[a], nw.nodes[b]
	nw.mu.Unlock()

	if closed {
		if na != nil {
			na.notifyLinkDown(b)
		}
		if nb != nil {
			nb.notifyLinkDown(a)
		}
	}
}

// PartitionGroups reconfigures connectivity so each group is a fully
// connected clique and no circuits cross groups. Sites not mentioned in
// any group are isolated. Circuit-close notifications run for every
// severed pair, in SetLink's order, pairs ascending.
func (nw *Network) PartitionGroups(groups ...[]SiteID) {
	group := make(map[SiteID]int)
	for gi, g := range groups {
		for _, s := range g {
			group[s] = gi + 1
		}
	}
	ids := nw.Sites()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			ga, oka := group[a]
			gb, okb := group[b]
			nw.SetLink(a, b, oka && okb && ga == gb)
		}
	}
}

// HealAll restores full connectivity among all up sites.
func (nw *Network) HealAll() {
	ids := nw.Sites()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			nw.SetLink(a, b, true)
		}
	}
}

// Crash takes a site down abruptly: every circuit to it closes and
// exchanges across them fail, exactly as when "hosts crash" in §2.3.3.
// The node's OnCrash callbacks run, so upper layers can discard in-core
// state (incore inodes, process table, tokens), then the OnLinkDown
// callback of every peer it had a circuit to, in ascending site order;
// all have returned when Crash does.
func (nw *Network) Crash(id SiteID) {
	nw.mu.Lock()
	if !nw.up[id] {
		nw.mu.Unlock()
		return
	}
	nw.up[id] = false
	var peers []SiteID
	for other, c := range nw.link[id] {
		if c.up {
			peers = append(peers, other)
		}
		c.closes++
		nw.link[id][other], nw.link[other][id] = c, c
	}
	nw.publishLocked()
	n := nw.nodes[id]
	nw.mu.Unlock()

	if n != nil {
		n.runCrash()
	}
	// Site order: the failure schedule is visible to the layers above
	// and must replay identically for a pinned seed.
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, peer := range peers {
		if pn := nw.Node(peer); pn != nil {
			pn.notifyLinkDown(id)
		}
	}
}

// Restart brings a crashed site back up. Its physical links are as they
// were configured before the crash (a rebooted machine rejoins the
// wire); the merge protocol is responsible for re-admitting it to a
// logical partition.
func (nw *Network) Restart(id SiteID) {
	nw.mu.Lock()
	if nw.up[id] {
		nw.mu.Unlock()
		return
	}
	nw.up[id] = true
	nw.publishLocked()
	n := nw.nodes[id]
	nw.mu.Unlock()
	if n != nil {
		n.runRestart()
	}
}

func payloadBytes(p any) int64 {
	if s, ok := p.(Sizer); ok {
		return int64(s.WireSize()) + headerWireSize
	}
	return defaultWireSize + headerWireSize
}

// Node is one site's attachment to the network. Upper layers register
// handlers by method name and issue Calls and Casts; the paper's kernel
// message analysis/dispatch loop (Figure 1) is the handler lookup the
// sender performs on the destination node.
type Node struct {
	id SiteID
	nw *Network

	mu        sync.Mutex
	handlers  map[string]Handler
	onLink    func(peer SiteID)
	onCrash   []func()
	onRestart []func()

	// seqGen issues this node's at-most-once request sequence numbers.
	seqGen atomic.Int64

	// dedupMu guards the callee-side at-most-once tables: one window per
	// caller, made on that caller's first seq-tagged request, and every
	// slot in it. The tables are volatile kernel state — a crash drops
	// them, which is exactly the paper's model (a rebooted site has no
	// memory of pre-crash exchanges; reconciliation handles the rest).
	dedupMu sync.Mutex
	dedup   map[SiteID]*dedupTable
}

// dedupWindow is how many sequence numbers of one caller a callee
// remembers: request seq is found again until a request dedupWindow or
// more sequence numbers later, from the same caller, has been answered —
// that one lands on its slot — so a retransmission fewer than dedupWindow
// behind the newest request seen gets the recorded reply and one a full
// window behind runs again. A caller draws its numbers from one counter
// for all its callees (NextSeq), retries a request at most 8 times and
// has one logical request in flight per goroutine, so it never
// retransmits that far back.
const dedupWindow = 1024

// dedupTable is one caller's window at one callee: slot seq mod
// dedupWindow holds the outcome of request seq, recorded when its handler
// returned, until a later request of that caller lands on it. Lookup,
// record and eviction are that one index and one compare; no request
// looks at another's slot. A slot's seq is 0 while it is empty (0 is the
// idempotent class and never gets here).
type dedupTable [dedupWindow]struct {
	seq   int64
	value any
	err   error
}

// ID returns the node's site id.
func (n *Node) ID() SiteID { return n.id }

// Network returns the network this node is attached to.
func (n *Node) Network() *Network { return n.nw }

// Handle binds a handler for a method name. Handlers may issue nested
// Calls (the CSS does so to reach an SS during open).
func (n *Node) Handle(method string, h Handler) {
	n.mu.Lock()
	n.handlers[method] = h
	n.mu.Unlock()
}

// OnLinkDown registers the callback run whenever the virtual circuit to
// peer closes, on the goroutine that closed it — the caller of SetLink
// or Crash, or a Call whose fault crashed its callee — and before that
// call returns. The reconfiguration layer uses it to keep its site
// table. The callback may take no lock its site holds across a send: it
// can run inside that send.
func (n *Node) OnLinkDown(f func(peer SiteID)) {
	n.mu.Lock()
	n.onLink = f
	n.mu.Unlock()
}

// OnCrash registers a callback run when this site crashes; upper layers
// discard volatile state there. Multiple layers may register; callbacks
// run in registration order.
func (n *Node) OnCrash(f func()) {
	n.mu.Lock()
	n.onCrash = append(n.onCrash, f)
	n.mu.Unlock()
}

// OnRestart registers a callback run when this site restarts. Multiple
// layers may register; callbacks run in registration order.
func (n *Node) OnRestart(f func()) {
	n.mu.Lock()
	n.onRestart = append(n.onRestart, f)
	n.mu.Unlock()
}

func (n *Node) handler(method string) Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handlers[method]
}

func (n *Node) notifyLinkDown(peer SiteID) {
	n.mu.Lock()
	f := n.onLink
	n.mu.Unlock()
	if f != nil {
		f(peer)
	}
}

func (n *Node) runCrash() {
	// The dedup tables are volatile kernel state: a crashed site
	// forgets every exchange it ever served. Retries of pre-crash
	// requests re-run after restart, and the reconciliation layer is
	// what makes that safe (§4).
	n.dedupMu.Lock()
	clear(n.dedup)
	n.dedupMu.Unlock()
	n.mu.Lock()
	fs := append([]func(){}, n.onCrash...)
	n.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

func (n *Node) runRestart() {
	n.mu.Lock()
	fs := append([]func(){}, n.onRestart...)
	n.mu.Unlock()
	for _, f := range fs {
		f()
	}
}

// NextSeq issues a fresh at-most-once request sequence number for this
// node. A retried request reuses the sequence number of its first
// transmission so the callee's dedup table can recognize it.
func (n *Node) NextSeq() int64 { return n.seqGen.Add(1) }

// unreachable builds the typed no-circuit error for a destination: a
// crashed site yields ErrCrashed (retry after it restarts may succeed),
// a partitioned or unknown one ErrUnreachable.
func (v *connView) unreachable(from, to SiteID) error {
	if _, known := v.nodes[to]; known && !v.up[to] {
		return fmt.Errorf("%w: %d -> %d", ErrCrashed, from, to)
	}
	return fmt.Errorf("%w: %d -> %d", ErrUnreachable, from, to)
}

// circuit starts a remote send: it returns the view the send goes out
// under, having shown the send to the trace hook, or the typed error for
// why no circuit can carry it.
func (n *Node) circuit(to SiteID, method string) (*connView, error) {
	view := n.nw.view()
	if n.nw.closed.Load() || !view.connected(n.id, to) {
		return nil, view.unreachable(n.id, to)
	}
	if tr := n.nw.trace.Load(); tr != nil {
		(*tr)(n.id, to, method)
	}
	return view, nil
}

// Call performs a request/response exchange with site to: exactly two
// messages on the wire (request, response), or zero when to == n.ID()
// (a local procedure call, as when "the local site is the CSS, only a
// procedure call is needed" — §2.3.3). See CallSeq for what has
// happened when it returns.
func (n *Node) Call(to SiteID, method string, payload any) (any, error) {
	return n.CallSeq(to, method, payload, 0)
}

// CallSeq is Call with an at-most-once sequence number. seq != 0 tags a
// mutating request: the callee caches the response keyed (caller, seq)
// and a retransmission with the same seq returns the cached response
// instead of re-running the handler. seq == 0 marks the request
// idempotent (reads), exempt from dedup.
//
// A remote call is a procedure call: the destination's handler runs on
// the calling goroutine — message analysis and system call continuation
// at the serving site are the same thread of control as the request
// (Figure 1) — and has returned when CallSeq does, whatever the result.
// The reply travels only on the circuit the request went out on: if the
// link went down or either site crashed while the handler ran, the
// call fails with ErrCircuitClosed even if a circuit is up again by
// then, and the caller cannot know whether the operation happened. A
// handler that waits (a pipe read) is therefore released by whatever
// releases it at its own site — §5.6 cleanup, a crash callback — never
// by the transport. A handler may call onward, even back to this site,
// so the caller must hold no lock a handler chain can take
// (blockinglock).
func (n *Node) CallSeq(to SiteID, method string, payload any, seq int64) (any, error) {
	if to == n.id {
		if !n.nw.Up(n.id) {
			return nil, ErrSiteDown
		}
		h := n.handler(method)
		if h == nil {
			return nil, fmt.Errorf("%w: %s at site %d", ErrNoHandler, method, to)
		}
		n.nw.stats.AddCPU(n.nw.cost.LocalCall)
		return h(n.id, payload)
	}

	nw := n.nw
	view, err := n.circuit(to, method)
	if err != nil {
		return nil, err
	}

	// Roll the fault plane before committing any accounting. The
	// decision covers the whole exchange.
	var dec decision
	f := nw.faults.Load()
	if f != nil {
		dec = f.decide(n.id, to, method, true)
		if dec.delayUs > 0 {
			nw.stats.addFaultDelay(dec.delayUs)
		}
		if dec.action == FaultDropRequest {
			// The request went onto the wire and vanished: one message
			// charged, circuit resets after the timeout.
			bytes := payloadBytes(payload)
			nw.stats.chargeExchange(method, 1, bytes, nw.cost.MsgCPU+bytes*nw.cost.PerKBCPU/1024, true)
			nw.stats.addFaultDrop(f.timeoutUs())
			return nil, fmt.Errorf("%w: %s %d -> %d", ErrTimeout, method, n.id, to)
		}
	}

	// A Call is two wire messages: the request and the response.
	bytes := payloadBytes(payload) + headerWireSize
	nw.stats.chargeExchange(method, 2, bytes, 2*nw.cost.MsgCPU+bytes*nw.cost.PerKBCPU/1024, true)

	if dec.action == FaultDupRequest {
		nw.stats.addFaultDup(method)
	}
	dest := view.nodes[to]
	v, err := dest.apply(n.id, method, payload, seq)
	switch dec.action {
	case FaultDupRequest:
		// The duplicate arrives right behind the original: the callee
		// sees the same seq twice, and without dedup the handler runs
		// twice — the hazard the at-most-once table exists to absorb.
		// The first run's reply is the reply.
		dest.apply(n.id, method, payload, seq) // error unchecked by design: a duplicate's reply is discarded
	case FaultCrashBeforeReply:
		// The operation is applied (durably, if the handler committed)
		// but the callee dies before the response goes out.
		nw.Crash(to)
	}

	// The reply needs the circuit the request went out on (no topology
	// change republished the view, almost always).
	if after := nw.view(); after != view &&
		(!after.connected(n.id, to) || after.link[n.id][to].closes != view.link[n.id][to].closes) {
		nw.stats.addReset()
		return nil, ErrCircuitClosed
	}
	if dec.action == FaultDropResponse {
		// The response went onto the wire and vanished; the circuit
		// resets after the timeout. The handler ran — a retry with the
		// same seq is what the dedup table absorbs.
		nw.stats.addFaultDrop(f.timeoutUs())
		return nil, fmt.Errorf("%w: %s response %d -> %d", ErrTimeout, method, to, n.id)
	}
	if err == nil {
		// Data-carrying responses (page transfers) are byte-metered; the
		// response header was charged with the request.
		if sz, ok := v.(Sizer); ok {
			bytes := int64(sz.WireSize())
			nw.stats.chargeResponse(bytes, bytes*nw.cost.PerKBCPU/1024)
		}
	}
	return v, err
}

// Cast sends a one-way message: one message on the wire, with only a
// low-level acknowledgement (modeled as free, per the write protocol
// footnote in §2.3.5). The sender delivers: the destination's handler
// has run, on the calling goroutine, when Cast returns, so messages from
// one goroutine are serviced in the order sent and the payload need not
// outlive the call. The handler's error has no reply path; Cast reports
// only the circuit: none at send time, or a message the fault plane
// lost. A handler may Cast in turn, even back to this site, so the
// caller must hold no lock a handler takes (blockinglock).
func (n *Node) Cast(to SiteID, method string, payload any) error {
	if to == n.id {
		h := n.handler(method)
		if h == nil {
			return fmt.Errorf("%w: %s at site %d", ErrNoHandler, method, to)
		}
		n.nw.stats.AddCPU(n.nw.cost.LocalCall)
		_, err := h(n.id, payload)
		return err
	}
	nw := n.nw
	view, err := n.circuit(to, method)
	if err != nil {
		return err
	}
	bytes := payloadBytes(payload)
	nw.stats.chargeExchange(method, 1, bytes, nw.cost.MsgCPU+bytes*nw.cost.PerKBCPU/1024, false)

	deliveries := 1
	if f := nw.faults.Load(); f != nil {
		dec := f.decide(n.id, to, method, false)
		if dec.delayUs > 0 {
			nw.stats.addFaultDelay(dec.delayUs)
		}
		switch dec.action {
		case FaultDropRequest, FaultDropResponse:
			// The message is gone. The low-level acknowledgement of
			// §2.3.5 never arrives, so the sender does learn the
			// circuit reset and may retransmit.
			nw.stats.addFaultDrop(f.timeoutUs())
			return fmt.Errorf("%w: %s %d -> %d", ErrTimeout, method, n.id, to)
		case FaultDupRequest:
			nw.stats.addFaultDup(method)
			deliveries = 2
		}
	}
	if h := view.nodes[to].handler(method); h != nil {
		for ; deliveries > 0; deliveries-- {
			h(n.id, payload) // error unchecked by design: one-way: no reply path
		}
	}
	return nil
}

// apply runs the handler for a request at most once per (caller, seq):
// a seq-tagged request looks in its slot of the caller's window, so a
// retransmission returns the recorded outcome of the original execution
// (at-most-once). The outcome is recorded when the handler returns: a
// retransmission is sent after its original's reply was lost, so it
// never finds the original still running. seq 0 marks an idempotent
// request, exempt from dedup; the number rides in the per-message header
// allowance (no extra wire bytes).
func (n *Node) apply(from SiteID, method string, payload any, seq int64) (any, error) {
	h := n.handler(method)
	if h == nil {
		return nil, fmt.Errorf("%w: %s at site %d", ErrNoHandler, method, n.id)
	}
	if seq == 0 || n.nw.dedupOff.Load() {
		return h(from, payload)
	}
	i := uint64(seq) % dedupWindow
	n.dedupMu.Lock()
	tbl := n.dedup[from]
	if tbl == nil {
		tbl = new(dedupTable)
		n.dedup[from] = tbl
	}
	if slot := &tbl[i]; slot.seq == seq {
		value, err := slot.value, slot.err
		n.dedupMu.Unlock()
		return value, err
	}
	n.dedupMu.Unlock()

	value, err := h(from, payload)

	// The outcome goes to the table the request was looked up in: one a
	// crash dropped meanwhile stays forgotten, and a newer request that
	// took the slot while this one ran keeps it.
	n.dedupMu.Lock()
	if slot := &tbl[i]; slot.seq < seq {
		slot.seq, slot.value, slot.err = seq, value, err
	}
	n.dedupMu.Unlock()
	return value, err
}
