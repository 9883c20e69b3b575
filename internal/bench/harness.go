package bench

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/locus"
)

// Harness is what an experiment body works through: the table under
// construction and every cluster the body built. RunWithMetrics makes
// one per run, closes its clusters and sums their counters. Failure
// mode is panic, like the rest of the bench package (see must).
type Harness struct {
	tbl      *Table
	clusters []*locus.Cluster
}

// Cluster builds an n-site cluster (locus.Simple) and records it, so
// RunWithMetrics closes it and counts its traffic. A body may Close it
// early; closing twice is harmless.
func (h *Harness) Cluster(n int) *locus.Cluster { return h.FeatureCluster(n, fs.Features{}) }

// FeatureCluster is Cluster booted with the feature selection ft.
func (h *Harness) FeatureCluster(n int, ft fs.Features) *locus.Cluster {
	spec := locus.SimpleSpec(n)
	spec.Features = ft
	c, err := locus.NewCluster(spec)
	must(err)
	h.clusters = append(h.clusters, c)
	return c
}

func (h *Harness) closeAll() {
	for _, c := range h.clusters {
		c.Close()
	}
}

// Row appends one row to the table.
func (h *Harness) Row(cells ...string) { h.tbl.Rows = append(h.tbl.Rows, cells) }

// Notef appends a formatted note to the table.
func (h *Harness) Notef(format string, args ...any) {
	h.tbl.Notes = append(h.tbl.Notes, fmt.Sprintf(format, args...))
}

// delta runs op and returns the simulated-cost delta it caused on c —
// the measurement at the heart of every pinned-count table.
func delta(c *locus.Cluster, op func()) netsim.Snapshot {
	before := c.Stats()
	op()
	return c.Stats().Sub(before)
}
