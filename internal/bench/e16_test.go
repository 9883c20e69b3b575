package bench

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/workload"
	"repro/locus"
)

// delegationCheckOps is the per-tenant budget of
// TestDelegationsOpClassCosts: every op class runs hundreds of times,
// and both runs take under a second.
const delegationCheckOps = 3000

// TestDelegationsOpClassCosts is the standing per-op-class check of read
// delegations, the default, on the E16 mix at a small budget against the
// paper's open and close (NoDelegations): neither run fails an op, the
// run as a whole sends fewer messages and is charged fewer simulated µs
// per op, and so is the read class, the one delegations serve. The
// other classes are logged, not bounded: a write and a build
// pay the revoke rounds their modify opens make (2 messages per
// delegate), and the two runs' schedules differ (an actor's next op
// waits for its last one's charged cost), so a class that no delegation
// serves moves either way with the interleaving (stat: +3.5% messages
// at this budget, −0.8% at 20,000 ops per tenant).
func TestDelegationsOpClassCosts(t *testing.T) {
	run := func(ft fs.Features) *workload.Result {
		t.Helper()
		spec := locus.SimpleSpec(3)
		spec.Features = ft
		c, err := locus.NewCluster(spec)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		eng, err := workload.New(c, e16Config(delegationCheckOps))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("%+v: %d ops failed", ft, res.Errors)
		}
		return res
	}
	deleg, paper := run(fs.Features{}), run(fs.Features{NoDelegations: true})
	total := func(r *workload.Result) (msgs, us int64) {
		for op := range r.OpMsgs {
			msgs, us = msgs+r.OpMsgs[op], us+r.OpUs[op]
		}
		return msgs, us
	}
	dm, du := total(deleg)
	pm, pu := total(paper)
	if dm >= pm || du >= pu {
		t.Errorf("the run sent %d msgs and was charged %d us with delegations, not less than the paper's %d, %d", dm, du, pm, pu)
	}
	for op := workload.OpRead; op <= workload.OpStat; op++ {
		dm, du := deleg.PerOp(op)
		pm, pu := paper.PerOp(op)
		t.Logf("op %s: %.3f msgs, %.0f us per op with delegations; %.3f, %.0f without", op, dm, du, pm, pu)
		if deleg.OpCount[op] == 0 {
			t.Errorf("op %s never ran", op)
		}
		if op == workload.OpRead && (dm >= pm || du >= pu) {
			t.Errorf("a read costs %.3f msgs, %.0f us with delegations, not less than the paper's %.3f, %.0f", dm, du, pm, pu)
		}
	}
}
