package workload

import (
	"container/heap"
	"fmt"
	"strings"

	"repro/internal/storage"
	"repro/locus"
)

// Op is one workload operation kind.
type Op int

const (
	// OpRead reads a whole file (open/read/close protocol, US cache in
	// play).
	OpRead Op = iota
	// OpWrite rewrites an existing file in place (modify open, write
	// protocol, commit-on-close).
	OpWrite
	// OpBuild is the build-style create-write-commit-rename sequence: a
	// fresh temporary is written and committed, then renamed over the
	// target (unlinking the old version first — LOCUS rename does not
	// replace).
	OpBuild
	// OpReadDir lists the tenant's directory.
	OpReadDir
	// OpStat stats a file (CSS open synchronization without data
	// transfer).
	OpStat

	nOps = int(OpStat) + 1
)

var opNames = [nOps]string{"read", "write", "build", "readdir", "stat"}

func (o Op) String() string { return opNames[o] }

// Mix is a tenant's op mix as integer weights (any scale).
type Mix struct {
	Name string
	// Weights per op, indexed by Op.
	Weights [nOps]int
}

// The three canonical tenant profiles.
var (
	// ScanHeavy models readers: mostly whole-file reads with directory
	// scans (source browsing, grep-style load).
	ScanHeavy = Mix{Name: "scan-heavy", Weights: [nOps]int{70, 5, 0, 15, 10}}
	// EditHeavy models writers: rewrite-in-place dominates (editor
	// save loops).
	EditHeavy = Mix{Name: "edit-heavy", Weights: [nOps]int{30, 55, 5, 5, 5}}
	// BuildStyle models build systems: create-write-commit-rename of
	// derived files plus rereads of inputs.
	BuildStyle = Mix{Name: "build", Weights: [nOps]int{30, 5, 45, 10, 10}}
)

// pick draws an op from the mix.
func (m *Mix) pick(r *rng) Op {
	total := 0
	for _, w := range m.Weights {
		total += w
	}
	v := r.intn(total)
	for op, w := range m.Weights {
		if v < w {
			return Op(op)
		}
		v -= w
	}
	return OpRead
}

// TenantSpec describes one tenant: a population of files and a fleet
// of actors (simulated processes) hammering them.
type TenantSpec struct {
	Name   string
	Mix    Mix
	Actors int // concurrent simulated processes
	Ops    int // total ops the tenant issues, spread across actors
	Files  int // file population size
	// FilePages is the seeded size of each file in 4 KB pages
	// (default 1).
	FilePages int
	// ZipfS is the popularity skew exponent (default 1.1; 0 = uniform
	// — note the zero value means "default", pass a negative value for
	// truly uniform).
	ZipfS float64
}

// Config configures a workload run.
type Config struct {
	Seed    uint64
	Tenants []TenantSpec
	// ThinkMaxUs bounds the uniform virtual think time an actor waits
	// between ops (default 1000 µs). Think time shapes interleaving
	// only; it never burns wall clock.
	ThinkMaxUs int64
	// Alive, when set, gates each actor on its home site being up: an
	// actor whose site fails the predicate is rescheduled without
	// issuing or consuming op budget. The chaos plane supplies its
	// topology model here — an op issued from a crashed site would
	// retry against a network that will never answer.
	Alive func(locus.SiteID) bool
}

// DefaultTenants returns the canonical 3-tenant mix (scan-heavy,
// edit-heavy, build-style) scaled to the given per-tenant actor and op
// counts over a population of files per tenant.
func DefaultTenants(actors, ops, files int) []TenantSpec {
	return []TenantSpec{
		{Name: "scan", Mix: ScanHeavy, Actors: actors, Ops: ops, Files: files, ZipfS: 1.1},
		{Name: "edit", Mix: EditHeavy, Actors: actors, Ops: ops, Files: files, ZipfS: 1.1},
		{Name: "build", Mix: BuildStyle, Actors: actors, Ops: ops, Files: files, ZipfS: 1.1},
	}
}

// actor is one simulated tenant process.
type actor struct {
	id     int // global actor index (heap tie-break, RNG stream, names)
	tenant int
	site   locus.SiteID
	sess   *locus.Session
	rng    rng
	next   int64  // virtual schedule time (µs)
	left   int    // ops remaining
	seq    int    // per-actor op sequence, names temporaries
	page   []byte // reusable write payload (WriteFile copies out of it)
}

// actorHeap orders actors by (virtual time, actor id) — the total
// order that makes the interleaving a pure function of the seed.
type actorHeap []*actor

func (h actorHeap) Len() int { return len(h) }
func (h actorHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next < h[j].next
	}
	return h[i].id < h[j].id
}
func (h actorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *actorHeap) Push(x any)   { *h = append(*h, x.(*actor)) }
func (h *actorHeap) Pop() any {
	old := *h
	n := len(old)
	a := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return a
}

// Result carries the deterministic outcome of a run. Everything in it
// is a pure function of the seed: op and error counters, simulated
// time, and simclock-tick latency quantiles. Wall-clock throughput is
// deliberately absent — callers time Run themselves.
type Result struct {
	Ops     int64
	Errors  int64
	OpCount [nOps]int64
	OpErrs  [nOps]int64
	Tenant  []TenantResult
	// SimUs is the simulated cost charged over the run (CPU + disk
	// virtual µs: the sim clock less the fault plane's timeouts and
	// delays).
	SimUs int64
	Lat   Hist // per-op latency in charged simulated µs
	// OpUs and OpMsgs are each op class's share of the run: the charged
	// simulated µs of its ops (Lat's samples, by class) and the messages
	// they sent.
	OpUs   [nOps]int64
	OpMsgs [nOps]int64
}

// PerOp returns op class op's mean messages and mean charged simulated
// µs per op.
func (r *Result) PerOp(op Op) (msgs, us float64) {
	n := float64(max(r.OpCount[op], 1))
	return float64(r.OpMsgs[op]) / n, float64(r.OpUs[op]) / n
}

// TenantResult is one tenant's slice of the counters.
type TenantResult struct {
	Name string
	Ops  int64
	Errs int64
}

// OpsPerSimSec returns throughput against the simulated clock.
func (r *Result) OpsPerSimSec() float64 {
	if r.SimUs <= 0 {
		return 0
	}
	return float64(r.Ops) * 1e6 / float64(r.SimUs)
}

// CounterTable renders every deterministic counter as text. Two runs
// with the same seed produce byte-identical tables — E16 pins this.
func (r *Result) CounterTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d errors=%d sim_us=%d\n", r.Ops, r.Errors, r.SimUs)
	for op := 0; op < nOps; op++ {
		fmt.Fprintf(&b, "op %s n=%d err=%d us=%d msgs=%d\n", opNames[op], r.OpCount[op], r.OpErrs[op], r.OpUs[op], r.OpMsgs[op])
	}
	for _, t := range r.Tenant {
		fmt.Fprintf(&b, "tenant %s ops=%d err=%d\n", t.Name, t.Ops, t.Errs)
	}
	fmt.Fprintf(&b, "lat_us p50=%d p95=%d p99=%d max=%d\n",
		r.Lat.Quantile(0.50), r.Lat.Quantile(0.95), r.Lat.Quantile(0.99), r.Lat.Max())
	return b.String()
}

// Engine drives one workload over a live cluster.
type Engine struct {
	cfg       Config
	c         *locus.Cluster
	actors    []*actor
	heap      actorHeap
	zipfs     []*Zipf
	res       Result
	costStart int64
	ready     bool
}

// New validates the config and binds the engine to a cluster. Actors
// are assigned to sites round-robin in actor order.
func New(c *locus.Cluster, cfg Config) (*Engine, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("workload: no tenants configured")
	}
	if cfg.ThinkMaxUs == 0 {
		cfg.ThinkMaxUs = 1000
	}
	e := &Engine{cfg: cfg, c: c}
	sites := c.Sites()
	id := 0
	for ti := range cfg.Tenants {
		t := &cfg.Tenants[ti]
		if t.Actors <= 0 || t.Ops <= 0 || t.Files <= 0 {
			return nil, fmt.Errorf("workload: tenant %q needs positive actors/ops/files", t.Name)
		}
		if t.FilePages == 0 {
			t.FilePages = 1
		}
		if t.ZipfS == 0 {
			t.ZipfS = 1.1
		}
		e.res.Tenant = append(e.res.Tenant, TenantResult{Name: t.Name})
		for i := 0; i < t.Actors; i++ {
			sid := sites[id%len(sites)]
			a := &actor{
				id:     id,
				tenant: ti,
				site:   sid,
				sess:   c.Site(sid).Login(fmt.Sprintf("%s-%d", t.Name, i)),
				rng:    newRNG(mixSeed(cfg.Seed, uint64(id))),
				left:   t.Ops / t.Actors,
			}
			if i < t.Ops%t.Actors {
				a.left++
			}
			// Stagger start times so actors don't lockstep.
			a.next = int64(a.rng.intn(int(cfg.ThinkMaxUs) + 1))
			id++
			if a.left > 0 {
				e.actors = append(e.actors, a)
			}
		}
	}
	return e, nil
}

// dir returns a tenant's directory path.
func (e *Engine) dir(ti int) string { return "/w/" + e.cfg.Tenants[ti].Name }

// file returns tenant file rank i's path.
func (e *Engine) file(ti, i int) string {
	return fmt.Sprintf("%s/f%04d", e.dir(ti), i)
}

// Setup creates the tenant directories and seeds the file populations.
// It must run before Step/Run, on a healthy cluster (setup errors are
// fatal, unlike op errors, which are workload results).
func (e *Engine) Setup() error {
	if e.ready {
		return nil
	}
	admin := e.c.Site(e.c.Sites()[0]).Login("workload-setup")
	if err := admin.Mkdir("/w"); err != nil {
		return fmt.Errorf("workload setup: %w", err)
	}
	for ti, t := range e.cfg.Tenants {
		if err := admin.Mkdir(e.dir(ti)); err != nil {
			return fmt.Errorf("workload setup %s: %w", t.Name, err)
		}
		content := make([]byte, t.FilePages*storage.PageSize)
		for i := range content {
			content[i] = byte(ti + i)
		}
		for i := 0; i < t.Files; i++ {
			if err := admin.WriteFile(e.file(ti, i), content); err != nil {
				return fmt.Errorf("workload setup %s f%d: %w", t.Name, i, err)
			}
		}
	}
	e.c.Settle()
	heap.Init(&e.heap)
	for _, a := range e.actors {
		heap.Push(&e.heap, a)
	}
	e.costStart = e.c.Network().CostUs()
	e.ready = true
	return nil
}

// Step issues the single next op in the deterministic schedule,
// returning false once every actor has exhausted its budget. Op
// failures are recorded, not returned: under fault injection (the
// chaos plane) ops are expected to fail.
func (e *Engine) Step() bool {
	if !e.ready || e.heap.Len() == 0 {
		return false
	}
	a := heap.Pop(&e.heap).(*actor)
	if e.cfg.Alive != nil && !e.cfg.Alive(a.site) {
		// The actor's site is down: skip its turn without consuming op
		// budget so it resumes once the site restarts. The reschedule
		// draw comes from the actor's own RNG, keeping the schedule a
		// pure function of (seed, topology history).
		a.next += 1 + int64(a.rng.intn(int(e.cfg.ThinkMaxUs)+1))
		heap.Push(&e.heap, a)
		return true
	}
	t := &e.cfg.Tenants[a.tenant]
	op := t.Mix.pick(&a.rng)
	nw := e.c.Network()

	// Latency is the charged simulated cost of the op (CostUs): what
	// the op's own CPU, disk and messages cost, without the time a
	// fault-plane timeout or delay adds to the clock.
	start, msgs := nw.CostUs(), nw.Meter().Msgs()
	err := e.issue(a, t, op)
	lat := nw.CostUs() - start

	e.res.Ops++
	e.res.OpCount[op]++
	e.res.OpUs[op] += lat
	e.res.OpMsgs[op] += nw.Meter().Msgs() - msgs
	e.res.Tenant[a.tenant].Ops++
	e.res.Lat.Record(lat)
	e.res.SimUs = nw.CostUs() - e.costStart
	if err != nil {
		e.res.Errors++
		e.res.OpErrs[op]++
		e.res.Tenant[a.tenant].Errs++
	}

	a.seq++
	a.left--
	if a.left > 0 {
		a.next += lat + 1 + int64(a.rng.intn(int(e.cfg.ThinkMaxUs)+1))
		heap.Push(&e.heap, a)
	}
	return true
}

// fillPage returns the actor's reusable one-page write payload filled
// with b. The SS, local or remote, has copied the payload into a shadow
// page by the time a Session write returns (a write cast is delivered
// before it returns), so reuse across ops is safe.
func (a *actor) fillPage(b byte) []byte {
	if a.page == nil {
		a.page = make([]byte, storage.PageSize)
	}
	for i := range a.page {
		a.page[i] = b
	}
	return a.page
}

// issue performs one op against the actor's session.
func (e *Engine) issue(a *actor, t *TenantSpec, op Op) error {
	zipf := e.zipfFor(a.tenant)
	switch op {
	case OpRead:
		_, err := a.sess.ReadFile(e.file(a.tenant, zipf.Sample(&a.rng)))
		return err
	case OpWrite:
		target := e.file(a.tenant, zipf.Sample(&a.rng))
		return a.sess.WriteFile(target, a.fillPage(byte(a.id+a.seq)))
	case OpBuild:
		target := e.file(a.tenant, zipf.Sample(&a.rng))
		// One tmp name per actor, reused every build (like real build
		// tools). Reuse also keeps the directory's tombstone set bounded
		// by the actor count instead of growing by one per build op —
		// with per-op unique names a million-op run makes every later
		// directory update quadratically slower.
		tmp := fmt.Sprintf("%s/.tmp-%d", e.dir(a.tenant), a.id)
		if err := a.sess.WriteFile(tmp, a.fillPage(byte(a.id^a.seq))); err != nil {
			return err
		}
		// Unlink may legitimately fail (target already replaced, or
		// gone after a faulted earlier build); the rename below surfaces
		// any real failure.
		_ = a.sess.Unlink(target)
		return a.sess.Rename(tmp, target)
	case OpReadDir:
		_, err := a.sess.ReadDir(e.dir(a.tenant))
		return err
	case OpStat:
		_, err := a.sess.Stat(e.file(a.tenant, zipf.Sample(&a.rng)))
		return err
	}
	return nil
}

// zipfFor lazily builds per-tenant popularity tables (shared across
// the tenant's actors; sampling takes the actor's RNG).
func (e *Engine) zipfFor(ti int) *Zipf {
	if e.zipfs == nil {
		e.zipfs = make([]*Zipf, len(e.cfg.Tenants))
	}
	if e.zipfs[ti] == nil {
		e.zipfs[ti] = NewZipf(e.cfg.Tenants[ti].Files, e.cfg.Tenants[ti].ZipfS)
	}
	return e.zipfs[ti]
}

// Run executes the whole schedule: Setup if needed, every Step, and a
// final drain. It returns the deterministic Result.
func (e *Engine) Run() (*Result, error) {
	if err := e.Setup(); err != nil {
		return nil, err
	}
	for e.Step() {
	}
	e.c.Settle()
	return &e.res, nil
}

// Result returns the counters accumulated so far (chaos interleavings
// read it mid-run).
func (e *Engine) Result() *Result { return &e.res }
