package chaos

// procplane.go is the process-level adversarial plane: when
// Config.Procs is set, the schedule interleaves remote run calls,
// cross-site signals, named pipes with the two ends on different
// sites, process migration, and nested transactions with the topology
// events, and a shadow model of every live resource checks the §5.6
// failure-action table: a run targeting a lost site returns
// ErrSiteFailed; a pipe whose far endpoint died delivers EOF or
// ErrPipeBroken, never a hang; a transaction straddling a failure
// aborts exactly once with no partial effects; a signal queued across
// a partition is delivered (or definitively dead) after the merge.
//
// Two disciplines keep the schedule a pure function of the seed:
// errors are logged as coarse classes (errClass), never raw %v chains,
// and the async Wait outcomes are recorded to a side list that is
// sorted and summarized only at finish — goroutine completion order
// never feeds the log. The plane also never issues a pipe read unless
// the model knows bytes are buffered: a read with nothing to return
// blocks inside its RPC handler, and the schedule's one driver
// goroutine with it.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/txn"
	"repro/locus"
)

// procRec is the shadow model of one run child.
type procRec struct {
	pid        proc.PID
	parentSite locus.SiteID // where the shell (the Wait caller) lives
	host       locus.SiteID // current executing site per the model
	alive      bool         // the body should still be running
	// unsure marks an outcome the model cannot predict: a queued signal
	// that may replay, an orphaning that self-terminates asynchronously,
	// or a migration whose reply was lost.
	unsure   bool
	termSent bool // a SIGTERM was delivered successfully
}

// pipeRec is the shadow model of one named pipe with both ends open.
type pipeRec struct {
	path         string
	server       locus.SiteID // storage site serving the buffer
	wSite, rSite locus.SiteID
	w, rd        *proc.PipeEnd
	wrote        []byte // everything successfully written
	readPos      int    // everything successfully read back
	dead         bool
}

// txnRec is one open top-level transaction and the content it staged.
type txnRec struct {
	t     *txn.Txn
	site  locus.SiteID
	paths map[string][]byte
	open  bool
}

type waitRec struct {
	pid proc.PID
	st  proc.ExitStatus
}

type procPlane struct {
	r      *run
	shells map[locus.SiteID]*locus.Session
	procs  []*procRec
	pipes  []*pipeRec
	txns   []*txnRec
	// aborted maps path -> content that was staged only inside an
	// aborted transaction; check() asserts it survived nowhere.
	aborted map[string][]byte

	mu     sync.Mutex
	waits  []waitRec
	waitWG sync.WaitGroup

	nextPipe, nextTxn int
}

// newProcPlane registers the program bodies at every site, logs one
// shell in per site, and installs the load modules and the transaction
// directory.
func newProcPlane(r *run) (*procPlane, error) {
	p := &procPlane{
		r:       r,
		shells:  make(map[locus.SiteID]*locus.Session),
		aborted: make(map[string][]byte),
	}
	for _, id := range r.c.Sites() {
		mgr := r.c.Site(id).Proc
		mgr.Register("sit", func(ctx *proc.Ctx) int {
			<-ctx.Signals()
			return 0
		})
		mgr.Register("exit0", func(*proc.Ctx) int { return 0 })
		p.shells[id] = r.c.Site(id).Login(fmt.Sprintf("chaos%d", id))
	}
	se := p.shells[r.c.Sites()[0]]
	if err := se.WriteFile("/sit", []byte("go:sit\n")); err != nil {
		return nil, fmt.Errorf("chaos: installing /sit: %w", err)
	}
	if err := se.WriteFile("/exit0", []byte("go:exit0\n")); err != nil {
		return nil, fmt.Errorf("chaos: installing /exit0: %w", err)
	}
	if err := se.Mkdir("/txn"); err != nil {
		return nil, fmt.Errorf("chaos: mkdir /txn: %w", err)
	}
	r.c.Settle()
	return p, nil
}

// onRestart re-logs the crashed site's shell in: the crash discarded
// every volatile process table, including the old shell.
func (p *procPlane) onRestart(id locus.SiteID) {
	p.shells[id] = p.r.c.Site(id).Login(fmt.Sprintf("chaos%d", id))
}

// errClass renders an error as a coarse deterministic class for the
// replay log (raw messages embed site lists and transport chains that
// are not schedule-stable).
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, io.EOF):
		return "eof"
	case errors.Is(err, proc.ErrPipeBroken):
		return "pipebroken"
	case errors.Is(err, proc.ErrNoProcess):
		return "noprocess"
	case errors.Is(err, proc.ErrSiteFailed):
		return "sitefailed"
	case errors.Is(err, txn.ErrAborted):
		return "aborted"
	case errors.Is(err, txn.ErrDone):
		return "done"
	case errors.Is(err, netsim.ErrTimeout):
		return "timeout"
	case errors.Is(err, netsim.ErrUnreachable):
		return "unreachable"
	default:
		return "err"
	}
}

// op runs one process-plane operation.
func (p *procPlane) op() {
	switch roll := p.r.rng.Intn(100); {
	case roll < 25:
		p.opRun()
	case roll < 45:
		p.opSignal()
	case roll < 70:
		p.opPipe()
	case roll < 88:
		p.opTxn()
	default:
		p.opMigrate()
	}
}

// opRun starts a program from a random up shell at a random target
// site — including unreachable targets, which probes the §5.6 "remote
// fork/exec to a failed site returns an error" row directly.
func (p *procPlane) opRun() {
	r := p.r
	up := r.upSites()
	if len(up) == 0 {
		return
	}
	src := up[r.rng.Intn(len(up))]
	all := r.c.Sites()
	target := all[r.rng.Intn(len(all))]
	se := p.shells[src]
	reach := r.reachable(src, target)
	// Under message faults (or to a known-lost target) run the
	// self-exiting body: a run whose reply is lost may still have
	// spawned, and a stray sitter with an unknown PID would hang
	// DrainPrograms forever. exit0 strays clean up after themselves.
	prog := "/sit"
	if r.faulted || !reach {
		prog = "/exit0"
	}
	se.SetExecSite(target)
	pid, err := se.Run(prog)
	se.SetExecSite()
	r.log("proc run %s site %d->%d: %s", prog, src, target, errClass(err))
	switch {
	case err == nil:
		if !reach {
			r.violate("run %s from site %d to unreachable site %d succeeded; §5.6 requires an error", prog, src, target)
		}
		rec := &procRec{pid: pid, parentSite: src, host: target, alive: prog == "/sit"}
		p.procs = append(p.procs, rec)
		p.waitWG.Add(1)
		go func() {
			st := se.Wait(pid)
			p.mu.Lock()
			p.waits = append(p.waits, waitRec{pid: pid, st: st})
			p.mu.Unlock()
			p.waitWG.Done()
		}()
	case errors.Is(err, proc.ErrSiteFailed):
		// Resolving the load module depends on its CSS and storage sites,
		// not just the src->target link, so a typed failure is legitimate
		// whenever ANY site is currently lost or the wire is faulted.
		if reach && !r.disturbed() {
			r.violate("run %s from site %d to reachable site %d failed with ErrSiteFailed on a clean network", prog, src, target)
		}
	default:
		r.violate("run %s from site %d to site %d: unclassified error %v (want nil or ErrSiteFailed)", prog, src, target, err)
	}
}

// signalClass is errClass for the outcome of a signal to rec. A body the
// model is unsure of may be ending on its own goroutine (an orphan told
// SIGPARENTERR, say): whether the signal still finds it in the process
// table is scheduling, which never feeds the log, so the two outcomes
// log as one class. The model ends up the same either way.
func (rec *procRec) signalClass(err error) string {
	if rec.unsure && (err == nil || errors.Is(err, proc.ErrNoProcess)) {
		return "ok or noprocess"
	}
	return errClass(err)
}

// opSignal sends SIGTERM to a model process from a random sender site,
// probing cross-site delivery, forwarding through migration records,
// and the queued-replay path across partitions.
func (p *procPlane) opSignal() {
	r := p.r
	var cands []*procRec
	for _, rec := range p.procs {
		if rec.alive || rec.unsure {
			cands = append(cands, rec)
		}
	}
	up := r.upSites()
	if len(cands) == 0 || len(up) == 0 {
		return
	}
	rec := cands[r.rng.Intn(len(cands))]
	sender := up[r.rng.Intn(len(up))]
	err := r.c.Site(sender).Proc.Signal(rec.pid, proc.SIGTERM)
	r.log("proc signal site %d -> pid %d@%d: %s", sender, rec.pid.Num, rec.pid.Site, rec.signalClass(err))
	// Delivery crosses sender -> origin (name authority) -> host.
	healthy := r.reachable(sender, rec.pid.Site) && r.reachable(rec.pid.Site, rec.host)
	switch {
	case err == nil:
		rec.termSent = true
		rec.alive = false
	case errors.Is(err, proc.ErrNoProcess):
		// Legitimate when the body already exited (orphaning, earlier
		// queued signal, crash) — a violation only if the model was sure
		// it was alive on a clean network.
		if rec.alive && !rec.unsure && !rec.termSent && healthy && !r.faulted {
			r.violate("signal to live pid %d@%d returned ErrNoProcess on a clean network", rec.pid.Num, rec.pid.Site)
		}
		rec.alive = false
	case errors.Is(err, proc.ErrSiteFailed):
		if healthy && !r.faulted {
			r.violate("signal to pid %d@%d failed with ErrSiteFailed though sender %d, origin, and host %d are connected",
				rec.pid.Num, rec.pid.Site, sender, rec.host)
		}
		// The signal queued at the sender; the merge may replay it and
		// kill the body later.
		rec.unsure = true
	default:
		r.violate("signal to pid %d@%d: unclassified error %v", rec.pid.Num, rec.pid.Site, err)
	}
}

// opMigrate moves a process still at its origin to a random other
// site, probing §3.4 migration and its failure rows.
func (p *procPlane) opMigrate() {
	r := p.r
	var cands []*procRec
	for _, rec := range p.procs {
		if rec.alive && !rec.unsure && !rec.termSent && rec.host == rec.pid.Site && r.up(rec.pid.Site) {
			cands = append(cands, rec)
		}
	}
	up := r.upSites()
	if len(cands) == 0 || len(up) == 0 {
		return
	}
	rec := cands[r.rng.Intn(len(cands))]
	target := up[r.rng.Intn(len(up))]
	if target == rec.host {
		return
	}
	origin := r.c.Site(rec.pid.Site).Proc
	pr, ok := origin.Process(rec.pid.Num)
	if !ok {
		// Exited between the model's last sighting and now.
		rec.alive = false
		return
	}
	err := origin.Migrate(pr, target)
	r.log("proc migrate pid %d@%d -> site %d: %s", rec.pid.Num, rec.pid.Site, target, errClass(err))
	reach := r.reachable(rec.pid.Site, target)
	switch {
	case err == nil:
		if !reach {
			r.violate("migrate pid %d@%d to unreachable site %d succeeded", rec.pid.Num, rec.pid.Site, target)
		}
		rec.host = target
	case errors.Is(err, proc.ErrSiteFailed):
		if reach && !r.faulted {
			r.violate("migrate pid %d@%d to reachable site %d failed with ErrSiteFailed on a clean network",
				rec.pid.Num, rec.pid.Site, target)
		}
		if r.faulted {
			// The request may have landed (reply lost): a second
			// incarnation can exist at the target. finish() sweeps it.
			rec.unsure = true
		}
	case errors.Is(err, proc.ErrNoProcess):
		rec.alive = false
	default:
		r.violate("migrate pid %d@%d: unclassified error %v", rec.pid.Num, rec.pid.Site, err)
	}
}

// opPipe exercises the named pipes: with none live it creates one (on a
// connected cluster; a fault burst may be on) and moves its first bytes
// through it, otherwise it writes, model-checks a read of, or drains and
// closes a live one.
func (p *procPlane) opPipe() {
	r := p.r
	var live []*pipeRec
	for _, pr := range p.pipes {
		if !pr.dead {
			live = append(live, pr)
		}
	}
	if len(live) == 0 {
		if !r.parted && len(r.downSites()) == 0 {
			if pr := p.pipeCreate(); pr != nil {
				p.pipeWrite(pr)
				p.pipeRead(pr)
			}
		}
		return
	}
	pr := live[r.rng.Intn(len(live))]
	switch roll := r.rng.Intn(100); {
	case roll < 45:
		p.pipeWrite(pr)
	case roll < 80:
		p.pipeRead(pr)
	default:
		p.pipeDrainClose(pr)
	}
}

// pipeCreate makes a fifo and opens its two ends at two different
// random sites; it returns the new pipe, or nil when that failed.
func (p *procPlane) pipeCreate() *pipeRec {
	r := p.r
	up := r.upSites()
	if len(up) == 0 {
		return nil
	}
	p.nextPipe++
	path := fmt.Sprintf("/pipe%d", p.nextPipe)
	se := p.shells[up[r.rng.Intn(len(up))]]
	if err := se.Mkfifo(path); err != nil {
		r.log("proc mkfifo %s: %s", path, errClass(err))
		return nil
	}
	r.c.Settle() // let the fifo inode replicate before opening elsewhere
	wi := r.rng.Intn(len(up))
	ri := wi
	if len(up) > 1 {
		ri = (wi + 1 + r.rng.Intn(len(up)-1)) % len(up)
	}
	wSite, rSite := up[wi], up[ri]
	w, err := p.shells[wSite].OpenPipe(path, true)
	if err != nil {
		r.log("proc pipe-open-w %s at %d: %s", path, wSite, errClass(err))
		// A past fault burst may have stranded the fifo's directory-entry
		// propagation beyond the retry budget; until the next topology
		// change requeues it, the name can be missing at other sites.
		if !r.strandRisk {
			r.violate("opening pipe writer %s at site %d on a clean network: %v", path, wSite, err)
		}
		return nil
	}
	rd, err := p.shells[rSite].OpenPipe(path, false)
	if err != nil {
		r.log("proc pipe-open-r %s at %d: %s", path, rSite, errClass(err))
		if !r.strandRisk {
			r.violate("opening pipe reader %s at site %d on a clean network: %v", path, rSite, err)
		}
		w.Close() // error unchecked by design: abandoning half-open pipe
		return nil
	}
	pr := &pipeRec{path: path, server: w.Server(), wSite: wSite, rSite: rSite, w: w, rd: rd}
	p.pipes = append(p.pipes, pr)
	r.log("proc pipe %s server=%d w=%d r=%d", path, w.Server(), wSite, rSite)
	return pr
}

func (p *procPlane) pipeWrite(pr *pipeRec) {
	r := p.r
	n := 8 + r.rng.Intn(64)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte('a' + (p.nextPipe+i)%26)
	}
	err := pr.w.Write(data)
	r.log("proc pipe-write %s %d bytes: %s", pr.path, n, errClass(err))
	if err == nil {
		pr.wrote = append(pr.wrote, data...)
		return
	}
	healthy := r.reachable(pr.wSite, pr.server) && r.up(pr.rSite)
	if healthy && !r.faulted {
		r.violate("pipe write %s failed on a clean network: %v", pr.path, err)
	}
	pr.dead = true
}

// pipeRead reads only when the model knows bytes are buffered at the
// server, so it can never block inside the RPC handler; the bytes must
// match what was written, in order. It asks for a random share of them,
// so a pipe can hold bytes when its writer's site is lost.
func (p *procPlane) pipeRead(pr *pipeRec) {
	r := p.r
	avail := len(pr.wrote) - pr.readPos
	if avail == 0 {
		return
	}
	data, err := pr.rd.Read(1 + r.rng.Intn(avail))
	r.log("proc pipe-read %s %d bytes: %s", pr.path, len(data), errClass(err))
	if err == nil {
		want := pr.wrote[pr.readPos : pr.readPos+len(data)]
		if !bytes.Equal(data, want) {
			r.violate("pipe %s returned wrong bytes at offset %d (%d bytes)", pr.path, pr.readPos, len(data))
		}
		pr.readPos += len(data)
		return
	}
	if err == io.EOF {
		r.violate("pipe %s returned EOF with the writer still open", pr.path)
	} else if !r.faulted && r.reachable(pr.rSite, pr.server) {
		r.violate("pipe read %s failed on a clean network: %v", pr.path, err)
	}
	pr.dead = true
}

// pipeDrainClose closes the writer, drains the reader to EOF checking
// every byte, and closes the reader: the normal shutdown row.
func (p *procPlane) pipeDrainClose(pr *pipeRec) {
	r := p.r
	pr.dead = true
	if err := pr.w.Close(); err != nil {
		r.log("proc pipe-close-w %s: %s", pr.path, errClass(err))
		if !r.faulted && r.reachable(pr.wSite, pr.server) {
			r.violate("pipe writer close %s failed on a clean network: %v", pr.path, err)
		}
		return
	}
	got := 0
	for i := 0; i < 100; i++ {
		data, err := pr.rd.Read(4096)
		if err == io.EOF {
			if pr.readPos+got != len(pr.wrote) {
				r.violate("pipe %s delivered EOF after %d of %d buffered bytes", pr.path, pr.readPos+got, len(pr.wrote))
			}
			break
		}
		if err != nil {
			if !r.faulted && r.reachable(pr.rSite, pr.server) {
				r.violate("pipe drain %s failed on a clean network: %v", pr.path, err)
			}
			break
		}
		want := pr.wrote[pr.readPos+got:]
		if len(data) > len(want) || !bytes.Equal(data, want[:len(data)]) {
			r.violate("pipe %s drained wrong bytes at offset %d", pr.path, pr.readPos+got)
			break
		}
		got += len(data)
	}
	r.log("proc pipe-drain %s %d bytes", pr.path, got)
	pr.rd.Close() // error unchecked by design: reader close after drain is advisory
}

// opTxn begins, commits, or aborts nested transactions.
func (p *procPlane) opTxn() {
	r := p.r
	var open []*txnRec
	for _, tr := range p.txns {
		if tr.open {
			open = append(open, tr)
		}
	}
	if len(open) < 2 && r.rng.Intn(2) == 0 {
		p.txnBegin()
		return
	}
	if len(open) == 0 {
		p.txnBegin()
		return
	}
	tr := open[r.rng.Intn(len(open))]
	if r.rng.Intn(100) < 60 {
		p.txnCommit(tr)
	} else {
		p.txnAbort(tr)
	}
}

// txnBegin opens a top-level transaction at a random up site and
// stages two files: one through a committed subtransaction, one
// directly in the parent — the nested-commit row.
func (p *procPlane) txnBegin() {
	r := p.r
	up := r.upSites()
	if len(up) == 0 {
		return
	}
	site := up[r.rng.Intn(len(up))]
	p.nextTxn++
	pa := fmt.Sprintf("/txn/t%d_a", p.nextTxn)
	pb := fmt.Sprintf("/txn/t%d_b", p.nextTxn)
	ca := []byte(fmt.Sprintf("txn %d sub seed=%d\n", p.nextTxn, r.cfg.Seed))
	cb := []byte(fmt.Sprintf("txn %d top seed=%d\n", p.nextTxn, r.cfg.Seed))

	t := p.shells[site].Begin()
	tr := &txnRec{t: t, site: site, paths: map[string][]byte{pa: ca, pb: cb}, open: true}
	stage := func() error {
		sub, err := t.Begin()
		if err != nil {
			return err
		}
		if err := sub.CreateFile(pa, ca); err != nil {
			return err
		}
		if err := sub.Commit(); err != nil {
			return err
		}
		return t.CreateFile(pb, cb)
	}
	if err := stage(); err != nil {
		r.log("proc txn %d begin at %d: %s", p.nextTxn, site, errClass(err))
		p.recordAborted(tr)
		t.Abort() // error unchecked by design: best-effort abort of a failed stage
		return
	}
	p.txns = append(p.txns, tr)
	r.log("proc txn %d begin at %d: ok", p.nextTxn, site)
}

// recordAborted marks a transaction's staged content as
// must-not-survive.
func (p *procPlane) recordAborted(tr *txnRec) {
	tr.open = false
	for path, content := range tr.paths {
		p.aborted[path] = content
	}
}

func (p *procPlane) txnCommit(tr *txnRec) {
	r := p.r
	err := tr.t.Commit()
	r.log("proc txn commit at %d: %s", tr.site, errClass(err))
	switch {
	case err == nil:
		tr.open = false
		// Committed content joins the filesystem model; a commit under a
		// disturbed topology may still race the merge, so mark dirty
		// exactly like a workload write would be.
		for path, content := range tr.paths {
			st := r.files[path]
			if st == nil {
				st = &fileState{}
				r.files[path] = st
			}
			st.exists = true
			st.content = content
			st.dirty = st.dirty || r.disturbed()
		}
	case errors.Is(err, txn.ErrAborted) || errors.Is(err, txn.ErrDone):
		// The partition cleanup aborted it first. Exactly-once: a second
		// abort must be a no-op reporting ErrDone.
		p.recordAborted(tr)
		if aerr := tr.t.Abort(); !errors.Is(aerr, txn.ErrDone) && !errors.Is(aerr, txn.ErrAborted) {
			r.violate("second abort after failed commit returned %v, want ErrDone", aerr)
		}
	default:
		// A mid-flush transport failure: the commit outcome is unknown,
		// so the staged paths are only marked unpredictable, not doomed.
		tr.open = false
		for path := range tr.paths {
			st := r.files[path]
			if st == nil {
				st = &fileState{}
				r.files[path] = st
			}
			st.dirty = true
		}
		if !r.disturbed() {
			r.violate("txn commit at site %d failed on a clean network: %v", tr.site, err)
		}
	}
}

func (p *procPlane) txnAbort(tr *txnRec) {
	r := p.r
	p.recordAborted(tr)
	err := tr.t.Abort()
	r.log("proc txn abort at %d: %s", tr.site, errClass(err))
	if err != nil && !errors.Is(err, txn.ErrDone) && !r.disturbed() {
		r.violate("txn abort at site %d failed on a clean network: %v", tr.site, err)
	}
	// Exactly-once: committing after abort must fail definitively.
	if cerr := tr.t.Commit(); !errors.Is(cerr, txn.ErrDone) && !errors.Is(cerr, txn.ErrAborted) {
		r.violate("commit after abort returned %v, want ErrDone or ErrAborted", cerr)
	}
}

// afterFailure runs immediately after a partition or crash event: it
// updates the shadow model for lost hosts and probes the §5.6 rows the
// event just made testable.
func (p *procPlane) afterFailure() {
	r := p.r
	for _, rec := range p.procs {
		if !rec.alive && !rec.unsure {
			continue
		}
		if !r.up(rec.host) || !r.up(rec.pid.Site) {
			// The executing site (or the name authority whose loss kills
			// the migrant) is gone.
			rec.alive = false
			rec.unsure = true
			continue
		}
		if !r.reachable(rec.host, rec.parentSite) || !r.reachable(rec.host, rec.pid.Site) {
			// Orphaned: SIGPARENTERR terminates the body asynchronously.
			rec.unsure = true
		}
	}
	p.probeRunToLost()
	for _, pr := range p.pipes {
		if !pr.dead {
			p.probePipe(pr)
		}
	}
}

// probeRunToLost directly drives the §5.6 "remote process call to a
// failed site" row: a run targeted at the first unreachable site must
// return ErrSiteFailed.
func (p *procPlane) probeRunToLost() {
	r := p.r
	up := r.upSites()
	if len(up) == 0 {
		return
	}
	src := up[0]
	var lost locus.SiteID
	for _, id := range r.c.Sites() {
		if id != src && !r.reachable(src, id) {
			lost = id
			break
		}
	}
	if lost == 0 {
		return
	}
	se := p.shells[src]
	se.SetExecSite(lost)
	_, err := se.Run("/exit0")
	se.SetExecSite()
	r.log("proc probe run site %d->%d: %s", src, lost, errClass(err))
	if !errors.Is(err, proc.ErrSiteFailed) {
		r.violate("run from site %d to lost site %d returned %v; §5.6 requires ErrSiteFailed", src, lost, err)
	}
}

// probePipe checks the pipe failure rows right after the event that
// severed one of its three sites.
func (p *procPlane) probePipe(pr *pipeRec) {
	r := p.r
	wLost := !r.reachable(pr.wSite, pr.server) || !r.up(pr.wSite)
	rLost := !r.reachable(pr.rSite, pr.server) || !r.up(pr.rSite)
	if !wLost && !rLost {
		return
	}
	pr.dead = true
	switch {
	case wLost && r.up(pr.wSite):
		// The buffer's site is gone from the writer's view: the next
		// write must fail typed, not hang.
		err := pr.w.Write([]byte("probe"))
		r.log("proc probe pipe-write %s: %s", pr.path, errClass(err))
		if err == nil || !errors.Is(err, proc.ErrSiteFailed) && !errors.Is(err, proc.ErrPipeBroken) {
			r.violate("pipe write %s after server site lost returned %v; want ErrSiteFailed", pr.path, err)
		}
	case rLost && !wLost:
		// Reader's site lost, writer fine: the next write must report
		// the pipe broken.
		err := pr.w.Write([]byte("probe"))
		r.log("proc probe pipe-write %s: %s", pr.path, errClass(err))
		if !errors.Is(err, proc.ErrPipeBroken) && !errors.Is(err, proc.ErrSiteFailed) {
			r.violate("pipe write %s after reader site lost returned %v; want ErrPipeBroken", pr.path, err)
		}
	}
	if wLost && !rLost {
		// The writer's end is gone from the server — its site crashed or
		// was cut off — and the reader's is not: §5.6 requires the reader
		// to see everything buffered and then EOF, never a hang.
		p.probeReaderEOF(pr)
	}
}

// probeReaderEOF drains the reader after the writer's site died. The
// server already ran dropSites (the topology event completed before
// this probe), so the pipe is closed and the reads return buffered
// bytes then EOF without blocking; the wall timeout converts a §5.6
// regression (hang) into a violation instead of a stuck harness.
func (p *procPlane) probeReaderEOF(pr *pipeRec) {
	r := p.r
	type readResult struct {
		got int
		err error
	}
	done := make(chan readResult, 1)
	go func() {
		got := 0
		for i := 0; i < 100; i++ {
			data, err := pr.rd.Read(4096)
			if err != nil {
				done <- readResult{got, err}
				return
			}
			got += len(data)
		}
		done <- readResult{got, nil}
	}()
	select {
	case res := <-done:
		r.log("proc probe pipe-eof %s %d bytes: %s", pr.path, res.got, errClass(res.err))
		switch {
		case res.err == io.EOF:
			// Bytes already consumed plus the drain must cover what was
			// written; the tail written closest to the failure may have
			// been acknowledged but is all buffered at the still-up
			// server, so the count must match exactly.
			if pr.readPos+res.got != len(pr.wrote) {
				r.violate("pipe %s EOF after %d of %d bytes following writer-site loss",
					pr.path, pr.readPos+res.got, len(pr.wrote))
			}
		case errors.Is(res.err, proc.ErrSiteFailed) && r.faulted:
			// A fault burst can eat the read exchange itself.
		default:
			r.violate("pipe %s read after writer-site loss returned %v; §5.6 requires EOF", pr.path, res.err)
		}
	case <-time.After(5 * time.Second):
		r.violate("pipe %s read HUNG after writer-site loss; §5.6 requires EOF, never a hang", pr.path)
	}
	pr.rd.Close() // error unchecked by design: retiring a probed pipe
}

// finish runs after the final heal: every prescribed outcome must now
// have landed. It terminates the surviving bodies, sweeps strays,
// joins every program goroutine and Wait caller, settles the
// transactions, and asserts the queues drained.
func (p *procPlane) finish() {
	r := p.r
	// Terminate every body the model still thinks may be running. After
	// a full heal each signal must succeed or report a definitive
	// ErrNoProcess — ErrSiteFailed would mean the heal left the name
	// authority unreachable.
	signalled := make(map[proc.PID]bool)
	for _, rec := range p.procs {
		if !rec.alive && !rec.unsure {
			continue
		}
		err := r.c.Site(rec.parentSite).Proc.Signal(rec.pid, proc.SIGTERM)
		r.log("proc finish signal pid %d@%d: %s", rec.pid.Num, rec.pid.Site, rec.signalClass(err))
		signalled[rec.pid] = err == nil
		if err != nil && !errors.Is(err, proc.ErrNoProcess) {
			r.violate("terminating pid %d@%d after full heal: %v (want nil or ErrNoProcess)",
				rec.pid.Num, rec.pid.Site, err)
		}
		rec.alive = false
	}
	// Every Wait caller must now be released with a definitive status:
	// the terminations above unblock the live ones, and every earlier
	// failure must already have produced its §5.6 notification. Joining
	// them first also makes the stray sweep deterministic — a signaled
	// body has fully exited by the time its Wait returns.
	waited := make(chan struct{})
	go func() {
		p.waitWG.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(10 * time.Second):
		r.violate("Wait callers still blocked after final heal; §5.6 requires exit or failure notification")
	}
	// Sweep strays the model never learned a PID for: the far half of a
	// migration whose reply was lost. These have no Wait caller and
	// would block DrainPrograms forever. A body signalled just above whose
	// Wait caller was released long ago (its parent's site failed) is
	// joined by nobody here: it may still be on its way out, and whether
	// the sweep gets to it first is scheduling, so that is not logged.
	for _, id := range r.c.Sites() {
		mgr := r.c.Site(id).Proc
		for _, pid := range mgr.LivePIDs() {
			if mgr.KillLocal(pid) && !signalled[pid] {
				r.log("proc finish sweep pid %d@%d at site %d", pid.Num, pid.Site, id)
			}
		}
	}
	// Every program goroutine must now run to completion: a hang here
	// is a §5.6 notification that never arrived.
	drained := make(chan struct{})
	go func() {
		for _, id := range r.c.Sites() {
			r.c.Site(id).Proc.DrainPrograms()
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		r.violate("program bodies failed to drain after final heal (stranded process goroutine)")
	}
	p.mu.Lock()
	waits := append([]waitRec(nil), p.waits...)
	p.mu.Unlock()
	sort.Slice(waits, func(i, j int) bool {
		if waits[i].pid.Site != waits[j].pid.Site {
			return waits[i].pid.Site < waits[j].pid.Site
		}
		return waits[i].pid.Num < waits[j].pid.Num
	})
	for _, wr := range waits {
		if wr.st.Err != nil && !errors.Is(wr.st.Err, proc.ErrSiteFailed) && !errors.Is(wr.st.Err, proc.ErrNoProcess) {
			r.violate("wait on pid %d@%d returned unclassified error %v", wr.pid.Num, wr.pid.Site, wr.st.Err)
		}
	}
	r.log("proc finish waits=%d", len(waits))
	// The normal pipe rows on the healed network: one pipe made now, and
	// every pipe the schedule left open, must carry bytes and, closed by
	// the writer, deliver every byte written, then EOF.
	if pr := p.pipeCreate(); pr != nil {
		p.pipeWrite(pr)
		p.pipeRead(pr)
	}
	for _, pr := range p.pipes {
		if !pr.dead {
			p.pipeDrainClose(pr)
		}
	}
	// Commit whatever transactions are still open (their locks would
	// otherwise hold the workload's files hostage), then assert the
	// transaction tables and signal queues drained everywhere.
	for _, tr := range p.txns {
		if tr.open {
			p.txnCommit(tr)
		}
	}
	for _, id := range r.c.Sites() {
		if n := r.c.Site(id).Proc.QueuedSignals(); n != 0 {
			r.violate("site %d still holds %d queued signals after final heal", id, n)
		}
		if n := r.c.Site(id).Txn.ActiveCount(); n != 0 {
			r.violate("site %d still holds %d active transactions after final heal", id, n)
		}
	}
}
