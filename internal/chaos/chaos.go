// Package chaos is a seeded randomized fault harness for the LOCUS
// simulation: it interleaves a multi-site filesystem workload with
// partitions, heals, crashes, restarts, and probabilistic message
// faults, then heals everything, reconciles, and asserts the global
// invariants the paper's recovery machinery promises (§2.3.6, §4):
// identical directory trees at every site, version-vector agreement on
// every copy, no committed file lost, no shadow-page leaks, no orphan
// inodes, and a clean deep fsck.
//
// Every run is driven by one uint64 seed. The schedule (which ops run
// where, when partitions form and heal, when sites crash) is a pure
// function of the seed, so a failing run is reproduced by re-running
// its seed; Result.Schedule is the replay log a failure prints.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/workload"
	"repro/locus"
)

// Config parameterizes one chaos run.
type Config struct {
	// Seed drives every random choice in the run.
	Seed uint64
	// Sites is the cluster size (default 3).
	Sites int
	// Steps is the number of schedule steps (default 80).
	Steps int
	// Drop, Dup, Delay are the probabilistic fault rates applied during
	// fault bursts (defaults 0.05 / 0.05 / 0.10).
	Drop, Dup, Delay float64
	// DisableDedup turns the callee-side at-most-once tables off, the
	// deliberate regression the harness exists to catch: retried
	// mutations replay and the invariant checks report the damage.
	DisableDedup bool
	// Features is installed at every site. The pinned seeds run
	// SerialPull (the legacy one-exchange-per-page pull path, so both
	// protocol variants are exercised under faults) and Leases
	// (delegation grants, batched revocation, and lease reclaim across
	// crashes and partitions; the post-heal fsck then also checks for
	// stranded lease records).
	Features fs.Features
	// Procs enables the process-level adversarial plane: remote run,
	// cross-site signals, named pipes spanning sites, migration, and
	// nested transactions interleave with the topology events, and a
	// §5.6 failure-action shadow model checks every prescribed outcome
	// (error to caller, EOF not hang, exactly-once abort, queued-signal
	// replay) after each failure event and at final heal.
	Procs bool
	// Workload replaces a share of the hand-rolled schedule ops with
	// steps of the multi-tenant workload engine (internal/workload)
	// bound to the same cluster: Zipf-skewed reads through the pooled
	// page path, zero-copy write casts, build-style rename cycles, and
	// readdir/stat traffic interleave with partitions, crashes, and
	// fault bursts. The engine's site-liveness gate is wired to the
	// harness topology model; the post-heal invariant checks must still
	// hold over the engine's tenant trees.
	Workload bool
}

func (c *Config) fill() {
	if c.Sites == 0 {
		c.Sites = 3
	}
	if c.Steps == 0 {
		c.Steps = 80
	}
	if c.Drop == 0 && c.Dup == 0 && c.Delay == 0 {
		c.Drop, c.Dup, c.Delay = 0.05, 0.05, 0.10
	}
}

// Result is the outcome of a chaos run.
type Result struct {
	Seed uint64
	// Config is the filled configuration the run used; ReplayCommand
	// renders it back into a copy-pasteable go test invocation.
	Config Config
	// Schedule is the replay log: one line per schedule step.
	Schedule []string
	// Violations are the invariant failures found after the final heal.
	// Empty means the run upheld every guarantee.
	Violations []string
	// Stats is the network snapshot at the end of the run.
	Stats netsim.Snapshot
	// PartitionedCrashChecks counts the crashes, made while the network
	// was partitioned, after which the membership check held every up
	// site's views to the sites it reaches.
	PartitionedCrashChecks int
}

// ReplayCommand renders the one-line command that re-runs exactly this
// schedule: the seed plus every non-default Config toggle, mapped to the
// -chaos.* flags TestChaosExtraSeed consumes.
func (r *Result) ReplayCommand() string {
	var b strings.Builder
	fmt.Fprintf(&b, "go test ./internal/chaos -run TestChaosExtraSeed -chaos.seed=%d", r.Seed)
	c := r.Config
	if c.Sites != 3 {
		fmt.Fprintf(&b, " -chaos.sites=%d", c.Sites)
	}
	if c.Steps != 80 {
		fmt.Fprintf(&b, " -chaos.steps=%d", c.Steps)
	}
	if c.Drop != 0.05 || c.Dup != 0.05 || c.Delay != 0.10 {
		fmt.Fprintf(&b, " -chaos.drop=%g -chaos.dup=%g -chaos.delay=%g", c.Drop, c.Dup, c.Delay)
	}
	if c.DisableDedup {
		b.WriteString(" -chaos.dedupoff")
	}
	if c.Features.SerialPull {
		b.WriteString(" -chaos.serialpull")
	}
	if c.Features.Leases {
		b.WriteString(" -chaos.leases")
	}
	if c.Procs {
		b.WriteString(" -chaos.procs")
	}
	if c.Workload {
		b.WriteString(" -chaos.workload")
	}
	return b.String()
}

// String renders the failure report (replay command, seed, violations,
// schedule).
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos run seed=%d: %d violation(s)\n", r.Seed, len(r.Violations))
	fmt.Fprintf(&b, "  replay: %s\n", r.ReplayCommand())
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  violation: %s\n", v)
	}
	b.WriteString("  schedule:\n")
	for i, s := range r.Schedule {
		fmt.Fprintf(&b, "    %3d %s\n", i, s)
	}
	return b.String()
}

// fileState is the harness's model of one path it created.
type fileState struct {
	exists  bool
	content []byte
	// dirty marks content written while the cluster was partitioned (or
	// the write outcome was unknown): after the heal, reconciliation may
	// legitimately keep either divergent copy, so only existence and
	// cross-site agreement are asserted, not the exact bytes.
	dirty bool
}

// run holds the evolving state of one chaos schedule.
type run struct {
	cfg   Config
	rng   *rand.Rand
	c     *locus.Cluster
	res   *Result
	files map[string]*fileState
	dirs  []string
	// dirtyDirs marks directories created while the topology was
	// disturbed: they (and thus everything beneath them) may be
	// conflict-renamed at merge time.
	dirtyDirs map[string]bool
	parted    bool
	faulted   bool
	// strandRisk is set while a past fault burst may have stranded an
	// async propagation beyond the retry budget: a name committed at one
	// site might not be visible at another until the next topology
	// change requeues stalled propagations. It may also have left a
	// reachable site out of a partition view: a poll or announcement
	// the fault plane lost is, by §5.4, a failed site, until the next
	// merge. Merge and restart clear it.
	strandRisk bool
	nextID     int
	// plane is the process-level adversarial plane (nil unless
	// Config.Procs).
	plane *procPlane
	// eng is the multi-tenant workload engine (nil unless
	// Config.Workload).
	eng *workload.Engine
}

// reachable reports whether sites a and b can currently exchange
// messages.
func (r *run) reachable(a, b locus.SiteID) bool { return r.c.Network().Connected(a, b) }

// disturbed reports whether the cluster is currently in a state where a
// successful operation can still race a conflicting update elsewhere:
// partitioned, or with a crashed site whose disk holds old state.
// (Message faults alone never cause divergence — the at-most-once
// retry plane absorbs them — but a fault burst can strand an async
// propagation past the retry budget, leaving a window a later
// partition merge turns into a name conflict, so it counts too.)
func (r *run) disturbed() bool {
	return r.parted || len(r.downSites()) > 0 || r.faulted
}

// Run executes one seeded chaos schedule and returns its result. The
// error return is for harness-level failures (cluster construction);
// invariant failures land in Result.Violations.
func Run(cfg Config) (*Result, error) {
	cfg.fill()
	c, err := locus.Simple(cfg.Sites)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if cfg.DisableDedup {
		c.Network().SetDedup(false)
	}
	c.SetFeatures(cfg.Features)

	r := &run{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(int64(cfg.Seed))), // seeded schedule PRNG, not a clock
		c:         c,
		res:       &Result{Seed: cfg.Seed, Config: cfg},
		files:     make(map[string]*fileState),
		dirs:      []string{"/"},
		dirtyDirs: make(map[string]bool),
	}
	if cfg.Procs {
		plane, err := newProcPlane(r)
		if err != nil {
			return nil, err
		}
		r.plane = plane
	}
	if cfg.Workload {
		// A small fleet with an op budget the bounded schedule can
		// never exhaust: two actors per tenant, eight Zipf-ranked files
		// each. The liveness gate reads the harness's own topology
		// model, so an actor on a crashed site skips its turn instead
		// of retrying into a dead network.
		eng, err := workload.New(c, workload.Config{
			Seed:    cfg.Seed,
			Alive:   r.up,
			Tenants: workload.DefaultTenants(2, cfg.Steps, 8),
		})
		if err != nil {
			return nil, err
		}
		if err := eng.Setup(); err != nil {
			return nil, err
		}
		r.eng = eng
	}

	for step := 0; step < cfg.Steps; step++ {
		r.step()
	}
	r.heal()
	r.check()
	r.res.Stats = c.Stats()
	return r.res, nil
}

func (r *run) log(format string, args ...any) {
	r.res.Schedule = append(r.res.Schedule, fmt.Sprintf(format, args...))
}

func (r *run) violate(format string, args ...any) {
	r.res.Violations = append(r.res.Violations, fmt.Sprintf(format, args...))
}

// up reports whether a site is running (not crashed).
func (r *run) up(id locus.SiteID) bool { return r.c.Network().Up(id) }

// upSites returns the ids of sites currently up, ascending.
func (r *run) upSites() []locus.SiteID {
	return slices.DeleteFunc(r.c.Sites(), func(id locus.SiteID) bool { return !r.up(id) })
}

// downSites returns the ids of crashed sites, ascending.
func (r *run) downSites() []locus.SiteID { return slices.DeleteFunc(r.c.Sites(), r.up) }

// step runs one schedule step: usually a workload op, sometimes a
// topology or fault event.
func (r *run) step() {
	switch roll := r.rng.Intn(100); {
	case roll < 8:
		r.eventPartition()
	case roll < 14:
		r.eventMerge()
	case roll < 20:
		r.eventCrash()
	case roll < 26:
		r.eventRestart()
	case roll < 32:
		r.eventFaultBurst()
	case roll < 36:
		r.log("settle (%d pulls)", r.c.Settle())
	default:
		// Guarded draws: a nil plane/engine must not consume an Intn,
		// so schedules for configs without the toggle replay unchanged.
		if r.eng != nil && r.rng.Intn(100) < 40 {
			r.engineOp()
		} else if r.plane != nil && r.rng.Intn(100) < 45 {
			r.plane.op()
		} else {
			r.workloadOp()
		}
	}
}

// engineOp advances the multi-tenant workload engine one deterministic
// step (or falls back to a harness op once the engine is exhausted).
func (r *run) engineOp() {
	if !r.eng.Step() {
		r.workloadOp()
		return
	}
	res := r.eng.Result()
	r.log("workload engine step (ops=%d errors=%d)", res.Ops, res.Errors)
}

// eventPartition splits the up sites into two groups.
func (r *run) eventPartition() {
	up := r.upSites()
	if r.parted || len(up) < 2 {
		return
	}
	cut := 1 + r.rng.Intn(len(up)-1)
	// Random subset: shuffle then split.
	r.rng.Shuffle(len(up), func(i, j int) { up[i], up[j] = up[j], up[i] })
	a, b := up[:cut], up[cut:]
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	r.c.Partition(a, b)
	r.parted = true
	r.log("partition %v | %v", a, b)
	r.checkViews("the partition")
	if r.plane != nil {
		r.plane.afterFailure()
	}
}

// eventMerge heals a partition (and any crashed-site cut) via the merge
// protocol plus reconciliation.
func (r *run) eventMerge() {
	if !r.parted {
		return
	}
	rep, err := r.c.Merge()
	// Merge restarts nothing, but HealAll reconnects only up sites;
	// crashed sites stay down.
	r.parted = false
	r.strandRisk = r.faulted
	r.log("merge (conflicts=%d, propagated=%d, err=%v)", rep.ConflictsReported, rep.Propagated, err)
	r.checkViews("the merge")
	r.resolveConflicts()
}

// eventCrash abruptly takes a random up site down, keeping at least one
// site alive.
func (r *run) eventCrash() {
	up := r.upSites()
	if len(up) < 2 {
		return
	}
	id := up[r.rng.Intn(len(up))]
	r.c.Crash(id)
	// A crash severs the victim from everyone; only the survivors of
	// its own partition run the partition protocol.
	r.log("crash site %d", id)
	if r.checkViews("the crash") && r.parted {
		r.res.PartitionedCrashChecks++
	}
	if r.plane != nil {
		r.plane.afterFailure()
	}
}

// eventRestart brings a random crashed site back (which also heals any
// partition, since Restart runs the full merge protocol).
func (r *run) eventRestart() {
	downs := r.downSites()
	if len(downs) == 0 {
		return
	}
	id := downs[r.rng.Intn(len(downs))]
	rep, err := r.c.Restart(id)
	r.parted = false
	r.strandRisk = r.faulted
	r.log("restart site %d (conflicts=%d, err=%v)", id, rep.ConflictsReported, err)
	r.checkViews("the restart")
	if r.plane != nil {
		r.plane.onRestart(id)
	}
	r.resolveConflicts()
}

// eventFaultBurst toggles the probabilistic fault plane.
func (r *run) eventFaultBurst() {
	if r.faulted {
		r.c.Network().DisableFaults()
		r.faulted = false
		r.log("faults off")
		return
	}
	r.c.Network().EnableFaults(netsim.FaultConfig{
		Seed:  r.cfg.Seed ^ uint64(r.nextID)<<32 ^ 0x9e3779b97f4a7c15,
		Rates: netsim.FaultRates{Drop: r.cfg.Drop, Dup: r.cfg.Dup, Delay: r.cfg.Delay, DelayMaxUs: 2000},
	})
	r.faulted = true
	r.strandRisk = true
	r.log("faults on (drop=%.2f dup=%.2f delay=%.2f)", r.cfg.Drop, r.cfg.Dup, r.cfg.Delay)
}

// workloadOp performs one filesystem operation at a random up site.
func (r *run) workloadOp() {
	up := r.upSites()
	if len(up) == 0 {
		return
	}
	site := up[r.rng.Intn(len(up))]
	se := r.c.Site(site).Login(fmt.Sprintf("u%d", site))

	switch roll := r.rng.Intn(100); {
	case roll < 30: // create a new file
		r.nextID++
		dir := r.dirs[r.rng.Intn(len(r.dirs))]
		path := joinPath(dir, fmt.Sprintf("f%d", r.nextID))
		content := r.content(path)
		err := se.WriteFile(path, content)
		r.log("site %d create %s (%d bytes): %v", site, path, len(content), err)
		r.noteWrite(path, content, err)
	case roll < 55: // overwrite an existing file
		path, ok := r.pickFile()
		if !ok {
			return
		}
		content := r.content(path)
		err := se.WriteFile(path, content)
		r.log("site %d write %s (%d bytes): %v", site, path, len(content), err)
		r.noteWrite(path, content, err)
	case roll < 75: // read a file back and check it against the model
		path, ok := r.pickFile()
		if !ok {
			return
		}
		data, err := se.ReadFile(path)
		r.log("site %d read %s: %d bytes, %v", site, path, len(data), err)
		st := r.files[path]
		if err == nil && st != nil && st.exists && !st.dirty && !r.disturbed() &&
			string(data) != string(st.content) {
			r.violate("read %s at site %d returned %d bytes, want %d (stale committed data)",
				path, site, len(data), len(st.content))
		}
	case roll < 85: // mkdir
		r.nextID++
		parent := r.dirs[r.rng.Intn(len(r.dirs))]
		path := joinPath(parent, fmt.Sprintf("d%d", r.nextID))
		err := se.Mkdir(path)
		r.log("site %d mkdir %s: %v", site, path, err)
		if err == nil {
			r.dirs = append(r.dirs, path)
			if r.disturbed() {
				r.dirtyDirs[path] = true
			}
		}
	default: // unlink
		path, ok := r.pickFile()
		if !ok {
			return
		}
		err := se.Unlink(path)
		r.log("site %d unlink %s: %v", site, path, err)
		if st := r.files[path]; st != nil {
			if err == nil {
				st.exists = false
			} else {
				st.dirty = true
			}
		}
	}
}

// content derives a deterministic payload (1..3 pages) for a write.
func (r *run) content(path string) []byte {
	n := 1 + r.rng.Intn(3000)
	line := fmt.Sprintf("%s seed=%d rev=%d\n", path, r.cfg.Seed, r.rng.Uint32())
	return []byte(strings.Repeat(line, 1+n/len(line)))[:n]
}

// pickFile returns a random path the model believes exists.
func (r *run) pickFile() (string, bool) {
	var live []string
	for p, st := range r.files {
		if st.exists {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return "", false
	}
	sort.Strings(live)
	return live[r.rng.Intn(len(live))], true
}

// noteWrite updates the model after a write attempt. A write while the
// cluster is disturbed (partition or crashed site) may race a
// conflicting update elsewhere, so its exact content is no longer
// predicted; a failed write leaves the previous committed state but —
// for typed mid-exchange failures — the outcome is genuinely unknown,
// so the path is marked dirty rather than asserted.
func (r *run) noteWrite(path string, content []byte, err error) {
	st := r.files[path]
	if st == nil {
		st = &fileState{}
		r.files[path] = st
	}
	switch {
	case err == nil:
		st.exists = true
		st.content = content
		st.dirty = st.dirty || r.disturbed()
	case errors.Is(err, netsim.ErrCircuitClosed) || errors.Is(err, netsim.ErrTimeout):
		// May or may not have applied at the storage site.
		st.dirty = true
	}
}

// resolveConflicts resolves every reported conflict by keeping the copy
// at the lowest-numbered holding site, then settles propagation.
func (r *run) resolveConflicts() {
	up := r.upSites()
	if len(up) == 0 {
		return
	}
	rec := r.c.Site(up[0]).Recon
	for pass := 0; pass < 3; pass++ {
		conflicts := rec.ListConflicts()
		if len(conflicts) == 0 {
			return
		}
		for _, cf := range conflicts {
			var sites []locus.SiteID
			for s := range cf.Copies {
				sites = append(sites, s)
			}
			sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
			err := rec.ResolveKeep(cf.ID, sites[0])
			r.log("resolve %v keep site %d: %v", cf.ID, sites[0], err)
		}
		r.c.Settle()
	}
}

// checkViews asserts that a topology event left every up site's kernel
// and topology manager holding the same partition: the up sites it can
// reach. It reads local state only, so it draws nothing from the
// schedule and sends nothing. It holds no claim while strandRisk is
// set, and reports whether it checked.
func (r *run) checkViews(event string) bool {
	if r.strandRisk {
		return false
	}
	for _, s := range r.upSites() {
		reach := slices.DeleteFunc(r.c.Sites(), func(x locus.SiteID) bool { return !r.reachable(s, x) })
		site := r.c.Site(s)
		if fsView, topoView := site.FS.Partition(), site.Topo.Partition(); !slices.Equal(fsView, reach) || !slices.Equal(topoView, reach) {
			r.violate("after %s: site %d's kernel view is %v and its topology view %v, but it reaches %v", event, s, fsView, topoView, reach)
		}
	}
	return true
}

// heal ends the run: faults off, every site up, partitions merged,
// conflicts resolved, propagation settled.
func (r *run) heal() {
	if r.faulted {
		r.c.Network().DisableFaults()
		r.faulted = false
		r.log("faults off (final heal)")
	}
	for _, id := range r.downSites() {
		rep, err := r.c.Restart(id)
		r.log("final restart site %d (conflicts=%d, err=%v)", id, rep.ConflictsReported, err)
		r.checkViews("the final restart")
		if r.plane != nil {
			r.plane.onRestart(id)
		}
	}
	rep, err := r.c.Merge()
	r.parted = false
	r.strandRisk = r.faulted
	r.log("final merge (conflicts=%d, propagated=%d, err=%v)", rep.ConflictsReported, rep.Propagated, err)
	if err != nil {
		r.violate("final merge failed: %v", err)
	}
	r.checkViews("the final merge")
	r.resolveConflicts()
	if r.plane != nil {
		r.plane.finish()
		r.c.Settle()
	}
	r.c.Settle()
}

// check asserts the global invariants after the final heal.
func (r *run) check() {
	// Deep fsck with convergence: no page leaks, no orphan inodes, no
	// dangling entries, all copies VV-equal with identical bytes, no
	// unresolved conflict flags.
	for _, f := range r.c.Fsck(true) {
		r.violate("fsck: %s", f)
	}

	// Identical directory trees at every site, via the public API.
	trees := make(map[locus.SiteID]string)
	for _, id := range r.c.Sites() {
		trees[id] = r.treeOf(id)
	}
	ref := trees[r.c.Sites()[0]]
	for _, id := range r.c.Sites() {
		if trees[id] != ref {
			r.violate("directory tree at site %d differs from site %d:\n--- site %d\n%s\n--- site %d\n%s",
				id, r.c.Sites()[0], r.c.Sites()[0], ref, id, trees[id])
		}
	}

	// No committed file lost. Files written only under a clean topology
	// must be present with exactly their committed bytes at every site.
	// Files touched while the cluster was disturbed may legitimately
	// have been conflict-renamed ("name!i<inode>") by the §4.4 merge,
	// so for those the path OR a conflict-rename of it must survive —
	// the committed inode must not silently vanish.
	var paths []string
	for p := range r.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		st := r.files[p]
		if !st.exists {
			continue
		}
		for _, id := range r.c.Sites() {
			se := r.c.Site(id).Login("checker")
			data, err := se.ReadFile(p)
			if err == nil {
				if !st.dirty && !r.underDirtyDir(p) && string(data) != string(st.content) {
					r.violate("committed file %s at site %d has %d bytes, want %d",
						p, id, len(data), len(st.content))
				}
				continue
			}
			if st.dirty || r.underDirtyDir(p) {
				if !r.conflictRenamed(se, p) {
					r.violate("committed file %s lost at site %d: %v (and no conflict-rename survives)", p, id, err)
				}
				continue
			}
			r.violate("committed file %s lost at site %d: %v", p, id, err)
		}
	}

	// No partial transaction effects: content written only inside an
	// aborted (sub)transaction must not survive anywhere. Empty husks are
	// tolerated — a crash discards the volatile undo log, so an unlink of
	// a created-then-aborted file can be lost — but the aborted bytes
	// themselves surviving means the abort leaked a write (§ nested
	// transactions, exactly-once abort).
	if r.plane != nil {
		var apaths []string
		for p := range r.plane.aborted {
			apaths = append(apaths, p)
		}
		sort.Strings(apaths)
		for _, p := range apaths {
			want := r.plane.aborted[p]
			if len(want) == 0 {
				continue
			}
			for _, id := range r.c.Sites() {
				se := r.c.Site(id).Login("checker")
				if data, err := se.ReadFile(p); err == nil && string(data) == string(want) {
					r.violate("aborted transaction content survived at site %d: %s (%d bytes)", id, p, len(want))
				}
			}
		}
	}
}

// underDirtyDir reports whether any ancestor directory of p was created
// while the topology was disturbed (and so may itself have been
// conflict-renamed, making p unresolvable through no fault of p's own).
func (r *run) underDirtyDir(p string) bool {
	for d := range r.dirtyDirs {
		if strings.HasPrefix(p, d+"/") {
			return true
		}
	}
	return false
}

// conflictRenamed reports whether a conflict-rename of path p survives:
// an entry "<base>!i<inode>" in p's parent directory, or the parent
// itself being unresolvable because it was conflict-renamed upstream.
func (r *run) conflictRenamed(se *locus.Session, p string) bool {
	i := strings.LastIndex(p, "/")
	dir, base := p[:i], p[i+1:]
	if dir == "" {
		dir = "/"
	}
	ents, err := se.ReadDir(dir)
	if err != nil {
		// The parent was renamed away; the file is wherever the parent
		// went. Tree equality plus fsck reachability cover it.
		return true
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name, base+"!i") {
			return true
		}
	}
	return false
}

// treeOf renders site id's directory tree (live names with file sizes
// elided) as a canonical string.
func (r *run) treeOf(id locus.SiteID) string {
	se := r.c.Site(id).Login("checker")
	var b strings.Builder
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := se.ReadDir(dir)
		if err != nil {
			fmt.Fprintf(&b, "%s: ERR %v\n", dir, err)
			return
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			p := joinPath(dir, e.Name)
			ino, err := se.Stat(p)
			if err != nil {
				fmt.Fprintf(&b, "%s: stat ERR %v\n", p, err)
				continue
			}
			fmt.Fprintf(&b, "%s type=%v\n", p, ino.Type)
			if ino.Type == storage.TypeDirectory {
				walk(p)
			}
		}
	}
	walk("/")
	return b.String()
}

func joinPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}
