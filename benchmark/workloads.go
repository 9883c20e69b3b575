package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/locus"
)

// opKind is one kind of Session-level operation the load generator
// issues.
type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opBuild
	opStat
	opReaddir
	numKinds
)

var kindNames = [numKinds]string{"read", "write", "build", "stat", "readdir"}

// workload is one fixed load: cluster shape, data, op mix and the
// number of ops in one epoch. The names and sizes are permanent; a
// change to any of them is a new benchmark.
type workload struct {
	name string
	why  string
	// replicas are the storage sites of the root filegroup; sessions
	// log in round-robin over sessionSites.
	replicas     []locus.SiteID
	sessionSites []locus.SiteID
	sessions     int
	files, pages int
	mix          [numKinds]int // weights, summing to 100
	// settleEvery > 0 runs Cluster.Settle after every that-many ops (a
	// propagation-daemon tick).
	settleEvery int
	// ops is the op count of one epoch: 2.5 to 4 s on the machine the
	// benchmark was defined on. The run repeats whole epochs until
	// --seconds is used up.
	ops int
}

const (
	zipfS   = 1.1
	dirPath = "/d"
)

var allSites = []locus.SiteID{1, 2, 3}

var workloads = []workload{
	{
		name: "scan_local",
		why: "every page is served by the using site's own replica: fs open/Resolve, storage GetInode/ReadPage and " +
			"dircache lookups do the work; page transfer, page cache and propagation do none",
		replicas: allSites, sessionSites: allSites, sessions: 48,
		files: 256, pages: 4,
		mix: [numKinds]int{opRead: 80, opStat: 10, opReaddir: 10},
		ops: 125000,
	},
	{
		name: "scan_remote",
		why: "same calls with the filegroup stored only at site 1 and a working set 4x the using-site page cache: " +
			"every open, directory page and cache miss crosses netsim",
		replicas: []locus.SiteID{1}, sessionSites: []locus.SiteID{2, 3}, sessions: 48,
		files: 512, pages: 8,
		mix: [numKinds]int{opRead: 80, opStat: 10, opReaddir: 10},
		ops: 25000,
	},
	{
		name: "edit_replicated",
		why: "whole-file rewrites beside reads on 3 replicas with a Settle tick every 32 ops: modify open, shadow-page " +
			"write, commit, propnotify and real pulls at the other two replicas",
		replicas: allSites, sessionSites: allSites, sessions: 48,
		files: 256, pages: 4,
		mix:         [numKinds]int{opWrite: 70, opRead: 30},
		settleEvery: 32,
		ops:         75000,
	},
	{
		name: "build_churn",
		why: "write-tmp/unlink/rename on one ~1.1k-entry directory with tombstones: updateDir, EncodeDir/DecodeDir, " +
			"per-entry vclock work and the allocator/GC",
		replicas: allSites, sessionSites: allSites, sessions: 64,
		files: 1024, pages: 1,
		mix:         [numKinds]int{opBuild: 70, opStat: 15, opReaddir: 15},
		settleEvery: 32,
		ops:         6250,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w *workload) filePath(i int) string { return fmt.Sprintf("%s/f%04d", dirPath, i) }

// tmpPath is the one reusable scratch name of a session (build tools
// reuse their temporary names; so the tombstone set stays bounded).
func (w *workload) tmpPath(sess int) string { return fmt.Sprintf("%s/.tmp-%02d", dirPath, sess) }

// op is one scripted call. The program under test sees only these.
type op struct {
	kind opKind
	sess uint16
	file uint32 // Zipf rank; unused by readdir
	fill byte   // content byte of a write or build
}

// rng is a splitmix64 stream: the exact sequence is pinned here, not
// left to a library that may change between Go releases.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// zipfCDF returns the cumulative popularity of ranks 0..n-1 with
// P(rank) proportional to 1/(rank+1)^s.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return cdf
}

// script generates the workload's op sequence for a seed. It is a
// pure function of (workload, seed).
func (w *workload) script(seed uint64) []op {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rng{state: seed*0x9E3779B97F4A7C15 ^ h.Sum64()}
	cdf := zipfCDF(w.files, zipfS)
	ops := make([]op, w.ops)
	for i := range ops {
		o := op{sess: uint16(r.intn(w.sessions))}
		pick := r.intn(100)
		for k, weight := range w.mix {
			if pick < weight {
				o.kind = opKind(k)
				break
			}
			pick -= weight
		}
		if o.kind != opReaddir {
			o.file = uint32(sort.SearchFloat64s(cdf, r.float()))
		}
		if o.kind == opWrite || o.kind == opBuild {
			o.fill = byte(r.next())
		}
		ops[i] = o
	}
	return ops
}

// scriptHash identifies the generated load: two runs measured the same
// work exactly when their hashes agree.
func (w *workload) scriptHash(ops []op) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%v|%v|%d|%d|%d|%v|%d|", w.name, w.replicas, w.sessionSites,
		w.sessions, w.files, w.pages, w.mix, w.settleEvery)
	var b [8]byte
	for _, o := range ops {
		b[0] = byte(o.kind)
		b[1] = o.fill
		binary.LittleEndian.PutUint16(b[2:], o.sess)
		binary.LittleEndian.PutUint32(b[4:], o.file)
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
