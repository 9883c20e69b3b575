package main

import (
	"runtime"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose
// speed on allocation-heavy code drifts by tens of percent over seconds
// to minutes, whole runs at a time, so no statistic taken inside a run
// removes it. The op loop therefore interleaves a fixed reference
// kernel — the same kind of work the simulator does most: small
// allocations and map stores — and every end-to-end wall-clock figure
// of an epoch is divided by that epoch's slowdown, the kernel's mean
// time over its reference time. README.md gives the measurements
// behind this.
const (
	// calRefNs is what one kernel call takes on the machine the
	// benchmark was defined on when the host is quiet.
	calRefNs = 100_000
	// calEveryNs of measured phase pass between two kernel calls, so
	// the kernel is about 5% of the run on any machine.
	calEveryNs = 2_000_000
)

var calSink map[int][]byte

func calKernel() {
	m := make(map[int][]byte, 64)
	for i := 0; i < 2000; i++ {
		m[i&63] = make([]byte, 128)
	}
	calSink = m
}

// calCost is what one kernel call allocates; it is taken out of the
// epoch's allocation counts.
var calCost = func() (c struct{ mallocs, bytes uint64 }) {
	const n = 64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		calKernel()
	}
	runtime.ReadMemStats(&m1)
	c.mallocs, c.bytes = (m1.Mallocs-m0.Mallocs)/n, (m1.TotalAlloc-m0.TotalAlloc)/n
	return c
}()

// calibrator runs the kernel whenever calEveryNs of measured phase
// have gone by since it last did.
type calibrator struct {
	pending int64   // measured ns since the last kernel call
	ns      []int64 // every kernel call's time
}

func (c *calibrator) tick(measuredNs int64) {
	if c.pending += measuredNs; c.pending >= calEveryNs {
		c.pending = 0
		c.burst(1)
	}
}

// burst runs the kernel n times now.
func (c *calibrator) burst(n int) {
	for i := 0; i < n; i++ {
		start := time.Now()
		calKernel()
		c.ns = append(c.ns, int64(time.Since(start)))
	}
}

// slowdown is how much slower than the reference the machine ran
// during the epoch (1 if the epoch was too short to tell): the mean
// kernel time without the slowest twentieth of the calls. The host
// sometimes takes the CPU away for 10 ms or more; the kernel is 5% of
// the run, so one such stall landing on a kernel call would count twenty
// times over.
func (c *calibrator) slowdown() float64 {
	if len(c.ns) == 0 {
		return 1
	}
	s := sortedCopy(c.ns)
	s = s[:len(s)-len(s)/20]
	var sum int64
	for _, d := range s {
		sum += d
	}
	return float64(sum) / float64(len(s)) / calRefNs
}
