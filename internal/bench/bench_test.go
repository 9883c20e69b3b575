package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/locus"
)

func TestRegistryIsE1ToE16(t *testing.T) {
	reg := Experiments()
	if len(reg) != 16 {
		t.Fatalf("registry has %d entries, want 16", len(reg))
	}
	for i, e := range reg {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want {
			t.Errorf("entry %d is %s, want %s", i, e.ID, want)
		}
		if e.Title == "" || e.Paper == "" || len(e.Headers) == 0 || e.Body == nil {
			t.Errorf("%s: empty title, paper claim, headers or body", e.ID)
		}
	}
}

// TestRowsMatchHeaders runs E1–E15 (E16 is the million-op run) and
// requires every row to have one cell per header: Table.Fprint indexes
// the column widths by cell position, so a longer row panics there.
func TestRowsMatchHeaders(t *testing.T) {
	for _, e := range Experiments() {
		if e.ID == "E16" {
			continue
		}
		tbl, _ := RunWithMetrics(e)
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: no rows", e.ID)
		}
		for i, r := range tbl.Rows {
			if len(r) != len(e.Headers) {
				t.Errorf("%s row %d: %d cells for %d headers: %q", e.ID, i, len(r), len(e.Headers), r)
			}
		}
	}
}

// TestRunWithMetricsClosesAndSumsEveryCluster runs a body that builds
// two clusters and sends on both: the Result must sum both, and when
// the body panics RunWithMetrics must re-raise the panic with both
// networks closed.
func TestRunWithMetricsClosesAndSumsEveryCluster(t *testing.T) {
	// merge runs the merge protocol from site 1, which polls site 2, and
	// returns the messages it cost: none once the network is closed.
	merge := func(c *locus.Cluster) int64 {
		return delta(c, func() {
			c.Site(1).Topo.RunMergeProtocol() //nolint:errcheck // only the message count matters
		}).Msgs
	}
	var built []*locus.Cluster
	twoClusters := func(fail bool) Experiment {
		return Experiment{ID: "T", Title: "two clusters", Headers: []string{"x"}, Body: func(h *Harness) {
			built = nil
			for i := 0; i < 2; i++ {
				c := h.Cluster(2)
				built = append(built, c)
				if merge(c) == 0 {
					t.Errorf("cluster %d: merge protocol sent nothing", i)
				}
			}
			if fail {
				panic("boom")
			}
		}}
	}

	_, res := RunWithMetrics(twoClusters(false))
	s0, s1 := built[0].Stats(), built[1].Stats()
	if res.Msgs != s0.Msgs+s1.Msgs || res.Bytes != s0.Bytes+s1.Bytes || res.CPUUs != s0.CPUUs+s1.CPUUs {
		t.Errorf("Result msgs/bytes/cpu = %d/%d/%d, want the two clusters' sum %d/%d/%d",
			res.Msgs, res.Bytes, res.CPUUs, s0.Msgs+s1.Msgs, s0.Bytes+s1.Bytes, s0.CPUUs+s1.CPUUs)
	}

	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("RunWithMetrics recovered %v; want the body's panic re-raised", r)
			}
		}()
		RunWithMetrics(twoClusters(true))
	}()
	if len(built) != 2 {
		t.Fatalf("panicking body built %d clusters, want 2", len(built))
	}
	for i, c := range built {
		if n := merge(c); n != 0 {
			t.Errorf("cluster %d still carries messages (%d) after a panicking body", i, n)
		}
	}
}

// TestResultCountersHaveSource: RunWithMetrics fills every int64 field
// of Result from the netsim.Snapshot field of the same name, so a
// counter with no source must fail here rather than read 0.
func TestResultCountersHaveSource(t *testing.T) {
	rt, st := reflect.TypeOf(Result{}), reflect.TypeOf(netsim.Snapshot{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		if sf, ok := st.FieldByName(f.Name); !ok || sf.Type.Kind() != reflect.Int64 {
			t.Errorf("Result.%s has no int64 netsim.Snapshot.%s to sum", f.Name, f.Name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	want := []Result{
		{ID: "E1", Title: "one", Msgs: 12, Bytes: 3400, CacheHitRate: 0.5},
		{ID: "E2", Title: "two", SignalsExpired: 3},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}
