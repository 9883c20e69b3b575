package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
)

// Result is one experiment's machine-readable cost summary — the
// per-experiment row of BENCH_locus.json. All values are simulated
// (message counts, bytes, virtual CPU/disk microseconds); nothing here
// depends on wall-clock time, so baselines diff cleanly across runs.
// Every int64 field is a counter: the sum over the experiment's
// clusters of the netsim.Snapshot field of the same name.
type Result struct {
	ID           string  `json:"id"`
	Title        string  `json:"title"`
	Msgs         int64   `json:"msgs"`
	Bytes        int64   `json:"bytes"`
	CPUUs        int64   `json:"cpu_us"`
	DiskUs       int64   `json:"disk_us"`
	Calls        int64   `json:"calls"`
	Casts        int64   `json:"casts"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheInvals  int64   `json:"cache_invals"`
	RAPagesSent  int64   `json:"ra_pages_sent"`
	RAPagesUsed  int64   `json:"ra_pages_used"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// Bulk-propagation counters (nonzero once an experiment's workload
	// triggers windowed replica pulls).
	PullWindowsSent int64 `json:"pull_windows_sent"`
	PullPagesSent   int64 `json:"pull_pages_sent"`
	// Read-delegation counters (nonzero once an experiment opens a file
	// for reading, since delegations are the default).
	LeasesGranted  int64 `json:"leases_granted"`
	LeasesRevoked  int64 `json:"leases_revoked"`
	BatchedRevokes int64 `json:"batched_revokes"`
	// Fault-plane counters (nonzero only for experiments that inject
	// faults, i.e. E12).
	MsgsDropped   int64 `json:"msgs_dropped"`
	MsgsDuped     int64 `json:"msgs_duped"`
	MsgsDelayed   int64 `json:"msgs_delayed"`
	CircuitResets int64 `json:"circuit_resets"`
	// §5.6 failure-action cleanup counters (nonzero only for
	// experiments that lose sites mid-workload, i.e. E15).
	OrphanNotices      int64 `json:"orphan_notices"`
	PipeTeardowns      int64 `json:"pipe_teardowns"`
	TxnPartitionAborts int64 `json:"txn_partition_aborts"`
	SignalsQueued      int64 `json:"signals_queued"`
	SignalsReplayed    int64 `json:"signals_replayed"`
	SignalsExpired     int64 `json:"signals_expired"`
}

// RunWithMetrics runs one registry entry: it builds the entry's table,
// runs the body, closes every cluster the body built (a panicking body
// too) and sums their final counters into the Result.
func RunWithMetrics(e Experiment) (*Table, Result) {
	h := &Harness{tbl: &Table{ID: e.ID, Title: e.Title, Paper: e.Paper, Headers: e.Headers}}
	defer h.closeAll()
	e.Body(h)
	// Close before reading: a send after Close fails uncounted, so a
	// goroutine the body left running cannot move the sum.
	h.closeAll()
	res := Result{ID: e.ID, Title: e.Title}
	rv := reflect.ValueOf(&res).Elem()
	for _, c := range h.clusters {
		sv := reflect.ValueOf(c.Stats())
		for i := 0; i < rv.NumField(); i++ {
			if f := rv.Field(i); f.Kind() == reflect.Int64 {
				f.SetInt(f.Int() + sv.FieldByName(rv.Type().Field(i).Name).Int())
			}
		}
	}
	if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
		res.CacheHitRate = math.Round(float64(res.CacheHits)/float64(lookups)*1e4) / 1e4
	}
	return h.tbl, res
}

// AllWithMetrics runs every experiment, returning the printable tables
// and the machine-readable results in the same order.
func AllWithMetrics() ([]*Table, []Result) {
	var tables []*Table
	var results []Result
	for _, e := range Experiments() {
		tbl, res := RunWithMetrics(e)
		tables = append(tables, tbl)
		results = append(results, res)
	}
	return tables, results
}

// benchFile is the on-disk schema of BENCH_locus.json.
type benchFile struct {
	Schema  string   `json:"schema"`
	Results []Result `json:"results"`
}

// WriteJSON emits results in the BENCH_locus.json schema (stable field
// order, no timestamps: the file is a diffable perf baseline).
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(benchFile{Schema: "locus-bench/v1", Results: results})
}

// ReadJSON parses a BENCH_locus.json baseline written by WriteJSON.
func ReadJSON(r io.Reader) ([]Result, error) {
	var f benchFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	if f.Schema != "locus-bench/v1" {
		return nil, fmt.Errorf("bench: unknown baseline schema %q", f.Schema)
	}
	return f.Results, nil
}
