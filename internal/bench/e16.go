package bench

import (
	"repro/internal/workload"
	"repro/locus"
)

// E16 configuration: three canonical tenants (scan-heavy, edit-heavy,
// build-style) at equal scale. The full run issues just over one
// million operations across 2,100 concurrent actors; every counter in
// the table is a pure function of the seed.
const (
	e16Seed         = 1
	e16ActorsPerTen = 700
	e16FilesPerTen  = 64
)

// E16OpsPerTenant is the full-scale per-tenant op budget of the
// registry entry (×3 tenants = 1,002,000 ops) — exported so
// locus-bench -workload defaults to the same scale.
const E16OpsPerTenant = 334000

// e16Config is the pinned E16 workload at opsPerTenant operations per
// tenant: seed, tenant mixes, actor fleet and file population.
func e16Config(opsPerTenant int) workload.Config {
	return workload.Config{
		Seed:    e16Seed,
		Tenants: workload.DefaultTenants(e16ActorsPerTen, opsPerTenant, e16FilesPerTen),
	}
}

// E16Workload runs the pinned E16 workload configuration standalone —
// no table, no metrics aggregation — and returns the engine result.
// locus-bench -workload and benchdiff's wall-clock throughput gate
// drive this entry point so their timing covers the engine alone.
func E16Workload(opsPerTenant int) (*workload.Result, error) {
	c, err := locus.Simple(3)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	eng, err := workload.New(c, e16Config(opsPerTenant))
	if err != nil {
		return nil, err
	}
	return eng.Run()
}

// E16Sized is the E16 registry entry at opsPerTenant operations per
// tenant. The counter table is deterministic at every size: same seed,
// same size ⇒ byte-identical rows. Tests run it at a small budget.
func E16Sized(opsPerTenant int) Experiment {
	reg := Experiments()
	e := reg[len(reg)-1]
	e.Body = e16(opsPerTenant)
	return e
}

// e16 runs the multi-tenant workload (§4's evaluation scaled from
// hand-written scripts to sustained concurrent load) at opsPerTenant
// operations per tenant; the registry runs the full million ops.
func e16(opsPerTenant int) func(*Harness) {
	return func(h *Harness) {
		c := h.Cluster(3)
		eng, err := workload.New(c, e16Config(opsPerTenant))
		must(err)
		var res *workload.Result
		d := delta(c, func() {
			res, err = eng.Run()
			must(err)
		})

		h.Row("ops", cell("%d", res.Ops))
		h.Row("errors", cell("%d", res.Errors))
		h.Row("sim_cost_us", cell("%d", res.SimUs))
		h.Row("ops/sim-sec", cell("%.0f", res.OpsPerSimSec()))
		for op := workload.OpRead; op <= workload.OpStat; op++ {
			h.Row("op "+op.String(), cell("%d (%d err)", res.OpCount[op], res.OpErrs[op]))
		}
		for op := workload.OpRead; op <= workload.OpStat; op++ {
			msgs, us := res.PerOp(op)
			h.Row("op "+op.String()+" per op", cell("%.2f msgs, %.0f us", msgs, us))
		}
		for _, tr := range res.Tenant {
			h.Row("tenant "+tr.Name, cell("%d ops (%d err)", tr.Ops, tr.Errs))
		}
		h.Row("lat_us p50", cell("%d", res.Lat.Quantile(0.50)))
		h.Row("lat_us p95", cell("%d", res.Lat.Quantile(0.95)))
		h.Row("lat_us p99", cell("%d", res.Lat.Quantile(0.99)))
		h.Row("lat_us max", cell("%d", res.Lat.Max()))
		h.Row("msgs", cell("%d", d.Msgs))
		h.Row("msgs/op", cell("%.2f", float64(d.Msgs)/float64(res.Ops)))

		h.Notef("%d actors (%d per tenant), %d files per tenant, seed %d; includes setup traffic in msgs",
			3*e16ActorsPerTen, e16ActorsPerTen, e16FilesPerTen, e16Seed)
		h.Notef("wall-clock ops/sec is deliberately absent here; cmd/benchdiff measures and gates it")
	}
}
