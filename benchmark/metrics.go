package main

import (
	"math"
	"sort"
	"syscall"
)

// metricDef is one line of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse; a
// per-layer metric has none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees, measured with tracing
// off. "sim_us" is simulated microseconds: a charged cost, exact for a
// given (workload, seed), not a wall time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_wall_s", "ops/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.10},
	{"alloc_bytes_per_op", "bytes", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"msgs_per_op", "count", "lower", 0.10},
	{"wire_bytes_per_op", "bytes", "lower", 0.10},
	{"sim_cpu_us_per_op", "sim_us", "lower", 0.10},
	{"sim_disk_us_per_op", "sim_us", "lower", 0.10},
}

// simMetrics are pure functions of (workload, seed): every epoch of a
// run, and every run of a seed, must report them identically.
var simMetrics = map[string]bool{"msgs_per_op": true, "wire_bytes_per_op": true, "sim_cpu_us_per_op": true, "sim_disk_us_per_op": true}

var fsMethods = []string{"open", "ssopen", "ssclose", "close", "read", "write", "commit", "propnotify", "pullopen"}

// perLayer lists the traced run's metrics, layer by layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{name: name, unit: unit, better: better}) }
	for _, k := range kindNames {
		add("locus."+k+".count", "count", "higher")
		add("locus."+k+".wall_p50_us", "us", "lower")
		add("locus."+k+".wall_p99_us", "us", "lower")
		add("locus."+k+".sim_cost_us", "sim_us", "lower")
		add("locus."+k+".msgs", "count", "lower")
	}
	add("locus.wall_p50_us", "us", "lower")
	add("locus.sim_cost_p50_us", "sim_us", "lower")
	add("locus.sim_cost_p99_us", "sim_us", "lower")
	for _, c := range []string{"open", "create", "read", "write", "close", "stat", "readdir", "unlink", "rename", "resolve", "settle"} {
		add("fs."+c+".wall_us", "us", "lower")
	}
	add("fs.settle.wall_share", "ratio", "lower")
	for _, meth := range fsMethods {
		add("fs.msgs."+meth, "count", "lower")
	}
	add("fs.cache.hit_ratio", "ratio", "higher")
	add("fs.cache.invals_per_op", "count", "lower")
	add("fs.pull.pages_per_op", "count", "lower")
	add("fs.pull.pages_per_pullopen", "ratio", "higher")
	add("netsim.calls_per_op", "count", "lower")
	add("netsim.casts_per_op", "count", "lower")
	add("netsim.bytes_per_msg", "bytes", "lower")
	add("netsim.drain.wall_us", "us", "lower")
	add("netsim.call_rtt_ns", "ns", "lower")
	add("netsim.call_page_rtt_ns", "ns", "lower")
	add("netsim.call_allocs", "count", "lower")
	add("netsim.cast_ns", "ns", "lower")
	add("netsim.est_wall_share", "ratio", "lower")
	add("storage.disk_ios_per_op", "count", "lower")
	add("storage.pagepool.new_ratio", "ratio", "lower")
	add("storage.get_inode_ns", "ns", "lower")
	add("storage.get_inode_allocs", "count", "lower")
	add("storage.read_page_ns", "ns", "lower")
	add("storage.write_page_ns", "ns", "lower")
	add("storage.commit_inode_ns", "ns", "lower")
	add("format.dir_entries", "count", "lower")
	add("format.dir_bytes", "bytes", "lower")
	add("format.decode_dir_us", "us", "lower")
	add("format.encode_dir_us", "us", "lower")
	add("format.decode_dir_allocs", "count", "lower")
	add("format.encode_dir_allocs", "count", "lower")
	add("vclock.compare_ns", "ns", "lower")
	add("vclock.merge_ns", "ns", "lower")
	add("vclock.copy_ns", "ns", "lower")
	add("vclock.copy_allocs", "count", "lower")
	add("vclock.sites_ns", "ns", "lower")
	add("vclock.sites_allocs", "count", "lower")
	add("runtime.gc_cpu_frac", "ratio", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.heap_live_mb_end", "MB", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	add("trace.spans", "count", "lower")
	add("calib.slowdown", "ratio", "lower")
	return m
}

// percentile returns the nearest-rank p-quantile of sorted values.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// p-quantile's position.
func samplesBeyond(n int, p float64) int { return n - int(math.Ceil(p*float64(n))) }

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// endToEndOf computes one untraced pass's end-to-end metrics, all but
// peak_rss_mb, which belongs to the process. The two wall-clock figures
// are divided by the slowdown measured beside them (calib.go).
func endToEndOf(p *pass) map[string]float64 {
	ops := float64(len(p.opWallNs))
	slow := p.cal.slowdown()
	return map[string]float64{
		"setup_s":            p.setupS / p.setupCal.slowdown(),
		"ops_per_wall_s":     ops / (float64(p.busyNs()) / 1e9 / slow),
		"allocs_per_op":      float64(p.mallocs) / ops,
		"alloc_bytes_per_op": float64(p.allocB) / ops,
		"msgs_per_op":        float64(p.stats.Msgs) / ops,
		"wire_bytes_per_op":  float64(p.stats.Bytes) / ops,
		"sim_cpu_us_per_op":  float64(p.stats.CPUUs) / ops,
		"sim_disk_us_per_op": float64(p.stats.DiskUs) / ops,
	}
}

// perLayerOf computes one traced pass's per-layer metrics; plain is the
// untraced pass it is paired with. Wall-clock figures here are as
// measured, not divided by the slowdown, which is reported beside them.
func perLayerOf(script []op, p, plain *pass) map[string]float64 {
	m := map[string]float64{}
	for name, v := range p.probes {
		m[name] = v
	}
	ops := float64(len(script))
	busy := float64(p.busyNs())

	// locus: the root spans, per op kind.
	var wall, sim [numKinds][]int64
	var msgs [numKinds]int64
	for i := range script {
		k := script[i].kind
		wall[k] = append(wall[k], p.opWallNs[i])
		sim[k] = append(sim[k], p.opSimUs[i])
		msgs[k] += p.opMsgs[i]
	}
	for k, name := range kindNames {
		n := float64(len(wall[k]))
		w := sortedCopy(wall[k])
		var simSum int64
		for _, c := range sim[k] {
			simSum += c
		}
		m["locus."+name+".count"] = n
		m["locus."+name+".wall_p50_us"] = float64(percentile(w, 0.50)) / 1e3
		m["locus."+name+".wall_p99_us"] = float64(percentile(w, 0.99)) / 1e3
		m["locus."+name+".sim_cost_us"] = ratio(float64(simSum), n)
		m["locus."+name+".msgs"] = ratio(float64(msgs[k]), n)
	}
	m["locus.wall_p50_us"] = float64(percentile(sortedCopy(p.opWallNs), 0.50)) / 1e3
	allSim := sortedCopy(p.opSimUs)
	m["locus.sim_cost_p50_us"] = float64(percentile(allSim, 0.50))
	m["locus.sim_cost_p99_us"] = float64(percentile(allSim, 0.99))

	// fs and netsim.drain: mean self time of the child spans and the
	// Settle ticks.
	var spanNs, spanN [numSpanNames]int64
	for i, self := range selfTimes(p.spans) {
		name := p.spans[i].name
		spanNs[name] += self
		spanN[name]++
	}
	for name := spanOpen; name < numSpanNames; name++ {
		m[spanNames[name]+".wall_us"] = ratio(float64(spanNs[name])/1e3, float64(spanN[name]))
	}
	m["fs.settle.wall_share"] = ratio(float64(spanNs[spanSettle]), busy)
	for _, meth := range fsMethods {
		m["fs.msgs."+meth] = float64(p.stats.ByMethod["fs."+meth]) / ops
	}
	st := &p.stats
	m["fs.cache.hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	m["fs.cache.invals_per_op"] = float64(st.CacheInvals) / ops
	m["fs.pull.pages_per_op"] = float64(st.PullPagesSent) / ops
	// A pull open is a Call: two messages.
	m["fs.pull.pages_per_pullopen"] = ratio(float64(st.PullPagesSent), float64(st.ByMethod["fs.pullopen"])/2)

	m["netsim.calls_per_op"] = float64(st.Calls) / ops
	m["netsim.casts_per_op"] = float64(st.Casts) / ops
	m["netsim.bytes_per_msg"] = ratio(float64(st.Bytes), float64(st.Msgs))
	// An estimate: the unit probes' costs times the pass's exchange
	// counts, as a share of the measured phase.
	m["netsim.est_wall_share"] = ratio(float64(st.Calls)*m["netsim.call_rtt_ns"]+float64(st.Casts)*m["netsim.cast_ns"], busy)

	m["storage.disk_ios_per_op"] = ratio(float64(st.DiskUs), float64(p.diskUs)) / ops
	m["storage.pagepool.new_ratio"] = ratio(float64(p.poolNews), float64(p.poolGets))

	m["runtime.gc_cpu_frac"] = ratio(p.gcCPU, p.totalCPU)
	m["runtime.gc_cycles"] = float64(p.gcCycles)
	m["runtime.heap_live_mb_end"] = float64(p.heapLive) / (1 << 20)

	// The two passes ran at different times, so each is taken at its
	// own slowdown.
	m["trace.overhead_frac"] = ratio(busy/p.cal.slowdown(), float64(plain.busyNs())/plain.cal.slowdown()) - 1
	m["trace.spans"] = float64(len(p.spans))
	m["calib.slowdown"] = p.cal.slowdown()
	return m
}
