package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/locus"
)

// env is one freshly built cluster with the workload's data seeded,
// the sessions logged in, and the oracle's shadow state.
type env struct {
	w     *workload
	c     *locus.Cluster
	nw    *netsim.Network
	sess  []*locus.Session
	paths []string // file rank -> path
	tmps  []string // session -> tmp path

	// Oracle: the last committed content byte of every file (a file is
	// pages*PageSize copies of one byte) and the live names of the
	// directory.
	fill []byte
	live map[string]bool

	buf []byte // reusable write payload
}

// setup builds the cluster: boot, format, seeding, logins, first
// Settle. Its wall time is the setup_s metric.
func setup(w *workload) (*env, error) {
	var sites []locus.SiteSpec
	for _, id := range allSites {
		sites = append(sites, locus.SiteSpec{ID: id})
	}
	c, err := locus.NewCluster(locus.ClusterSpec{
		Sites:      sites,
		Filegroups: []locus.FilegroupSpec{{ID: 1, MountPath: "/", Replicas: w.replicas}},
	})
	if err != nil {
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	e := &env{
		w: w, c: c, nw: c.Network(),
		fill: make([]byte, w.files),
		live: make(map[string]bool, w.files),
		buf:  make([]byte, w.pages*storage.PageSize),
	}
	admin := c.Site(w.replicas[0]).Login("admin")
	if err := admin.Mkdir(dirPath); err != nil {
		c.Close()
		return nil, fmt.Errorf("setup %s: %w", w.name, err)
	}
	for i := 0; i < w.files; i++ {
		p := w.filePath(i)
		e.paths = append(e.paths, p)
		e.fill[i] = byte(i)
		e.live[p[len(dirPath)+1:]] = true
		if err := admin.WriteFile(p, e.payload(byte(i))); err != nil {
			c.Close()
			return nil, fmt.Errorf("setup %s: seeding %s: %w", w.name, p, err)
		}
	}
	for i := 0; i < w.sessions; i++ {
		site := w.sessionSites[i%len(w.sessionSites)]
		e.sess = append(e.sess, c.Site(site).Login(fmt.Sprintf("u%02d", i)))
		e.tmps = append(e.tmps, w.tmpPath(i))
	}
	e.nw.Quiesce()
	c.Settle()
	return e, nil
}

func (e *env) payload(fill byte) []byte {
	for i := range e.buf {
		e.buf[i] = fill
	}
	return e.buf
}

func (e *env) fileSize() int { return e.w.pages * storage.PageSize }

// Oracle checks. Each returns false on a mismatch; a mismatch counts
// as a failed op exactly like a returned error.

func (e *env) checkContent(file uint32, got []byte) bool {
	return len(got) == e.fileSize() && bytes.Count(got, []byte{e.fill[file]}) == len(got)
}

func (e *env) checkNames(ents []dirEntry) bool {
	if len(ents) != len(e.live) {
		return false
	}
	for i := range ents {
		if !e.live[ents[i].Name] {
			return false
		}
	}
	return true
}

// pass is what one run of the script over a fresh cluster measured.
type pass struct {
	setupS   float64    // median of the epoch's setupRepeats set-ups
	setupCal calibrator // kernel bursts right before and after each set-up
	opWallNs []int64    // per op: the call(s) plus the Quiesce that follows
	opSimUs  []int64    // per op: Network.CostUs delta over the same interval
	settleNs []int64    // per Settle tick
	failed   int
	stats    netsim.Snapshot // delta over the measured phase
	mallocs  uint64
	allocB   uint64
	gcCPU    float64 // seconds, delta
	totalCPU float64
	gcCycles uint64
	heapLive uint64 // bytes marked live by the last GC of the phase
	poolGets int64
	poolNews int64
	fsckErr  string
	diskUs   int64 // the cost model's charge for one disk transfer

	// Traced passes only.
	spans  []span
	opMsgs []int64 // per op: Snapshot.Msgs delta
	probes map[string]float64

	cal calibrator
}

// busyNs is the measured phase: the op intervals plus the Settle
// ticks. The oracle's own checks run between intervals and are not in
// it.
func (p *pass) busyNs() int64 {
	var t int64
	for _, d := range p.opWallNs {
		t += d
	}
	for _, d := range p.settleNs {
		t += d
	}
	return t
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/live:bytes"},
}

// setupRepeats is how many times an epoch sets the cluster up: set-up
// takes tens of milliseconds and varies by a fifth from one time to the
// next, so each epoch times it three times and keeps the last cluster.
const setupRepeats = 3

// runPass sets up a fresh cluster and runs the script over it once,
// closed loop, one op in flight, Quiesce after every op. With traced
// set it records spans and per-op counter deltas; the calls reaching
// the system are the same either way. With probe set it then runs the
// unit probes on the final state.
func runPass(w *workload, script []op, traced, probe bool) (*pass, error) {
	var e *env
	var setups []float64
	var setupCal calibrator
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.c.Close()
		}
		runtime.GC()
		setupCal.burst(8)
		t0 := time.Now()
		var err error
		if e, err = setup(w); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupCal.burst(8)
	}
	defer e.c.Close()
	p := &pass{
		setupS:   median(setups),
		setupCal: setupCal,
		diskUs:   e.nw.Cost().DiskUs,
		opWallNs: make([]int64, len(script)),
		opSimUs:  make([]int64, len(script)),
	}
	if w.settleEvery > 0 {
		p.settleNs = make([]int64, 0, len(script)/w.settleEvery)
	}
	var tr *tracer
	if traced {
		tr = newTracer(script, cap(p.settleNs))
		p.opMsgs = make([]int64, len(script))
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(runtimeSamples)
	gc0, cpu0, cyc0 := runtimeSamples[0].Value.Float64(), runtimeSamples[1].Value.Float64(), runtimeSamples[2].Value.Uint64()
	gets0, _, news0 := storage.PagePoolStats()
	s0 := e.c.Stats()

	for i := range script {
		var ok bool
		if traced {
			ok = e.doTraced(tr, p, i, &script[i])
		} else {
			c0 := e.nw.CostUs()
			start := time.Now()
			res, err := e.do(&script[i])
			e.nw.Quiesce()
			p.opWallNs[i] = int64(time.Since(start))
			p.opSimUs[i] = e.nw.CostUs() - c0
			ok = err == nil && e.check(&script[i], res)
		}
		if !ok {
			p.failed++
		}
		p.cal.tick(p.opWallNs[i])
		if w.settleEvery > 0 && (i+1)%w.settleEvery == 0 {
			start := time.Now()
			e.c.Settle()
			d := int64(time.Since(start))
			p.settleNs = append(p.settleNs, d)
			if traced {
				tr.add(-1, -1, spanSettle, start, d)
			}
		}
	}

	p.stats = e.c.Stats().Sub(s0)
	gets1, _, news1 := storage.PagePoolStats()
	p.poolGets, p.poolNews = gets1-gets0, news1-news0
	metrics.Read(runtimeSamples)
	p.gcCPU = runtimeSamples[0].Value.Float64() - gc0
	p.totalCPU = runtimeSamples[1].Value.Float64() - cpu0
	p.gcCycles = runtimeSamples[2].Value.Uint64() - cyc0
	p.heapLive = runtimeSamples[3].Value.Uint64()
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs - uint64(len(p.cal.ns))*calCost.mallocs
	p.allocB = m1.TotalAlloc - m0.TotalAlloc - uint64(len(p.cal.ns))*calCost.bytes
	if traced {
		p.spans = tr.spans
	}

	// After the run every replica must have converged and the disks
	// must be structurally clean.
	e.nw.Quiesce()
	e.c.Settle()
	if findings := e.c.Fsck(true); len(findings) > 0 {
		p.fsckErr = fmt.Sprintf("%d fsck findings, first: %v", len(findings), findings[0])
	}
	if probe {
		if err := e.probe(p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// opResult carries whatever the op returned that the oracle checks.
type opResult struct {
	data []byte
	size int64
	ents []dirEntry
}

// do issues one op through the public Session calls.
func (e *env) do(o *op) (opResult, error) {
	s := e.sess[o.sess]
	switch o.kind {
	case opRead:
		data, err := s.ReadFile(e.paths[o.file])
		return opResult{data: data}, err
	case opWrite:
		return opResult{}, s.WriteFile(e.paths[o.file], e.payload(o.fill))
	case opBuild:
		tmp, target := e.tmps[o.sess], e.paths[o.file]
		if err := s.WriteFile(tmp, e.payload(o.fill)); err != nil {
			return opResult{}, err
		}
		if err := s.Unlink(target); err != nil {
			return opResult{}, err
		}
		return opResult{}, s.Rename(tmp, target)
	case opStat:
		ino, err := s.Stat(e.paths[o.file])
		if err != nil {
			return opResult{}, err
		}
		return opResult{size: ino.Size}, nil
	default:
		ents, err := s.ReadDir(dirPath)
		return opResult{ents: ents}, err
	}
}

// check is the oracle: it verifies the op's result against the shadow
// state and, for a mutation, advances the shadow state.
func (e *env) check(o *op, r opResult) bool {
	switch o.kind {
	case opRead:
		return e.checkContent(o.file, r.data)
	case opWrite, opBuild:
		e.fill[o.file] = o.fill
		return true
	case opStat:
		return r.size == int64(e.fileSize())
	default:
		return e.checkNames(r.ents)
	}
}
