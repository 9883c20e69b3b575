// Package proc implements LOCUS transparent remote processes (§3 of
// the paper): process creation on any site with the same semantics as
// local creation (fork, exec, and the combined run call), network-wide
// Unix IPC (signals and named pipes), shared open-file descriptors
// maintained with a token scheme, and the error reflection rules for
// site failures (§3.3, §5.6).
//
// Load modules are simulated: a program is a Go function registered by
// name in each site's program registry (a site only registers the
// programs its "machine type" can execute), and an executable file's
// content is the interpreter line "go:<program-name>". Exec resolves
// the pathname through the filesystem — including hidden directories,
// so /bin/who transparently picks the right load module per machine
// type (§2.4.1) — reads the module, and runs the registered function.
package proc

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// SiteID aliases the shared site identifier.
type SiteID = vclock.SiteID

// Errors returned by process operations.
var (
	// ErrNoProgram: the load module names a program this site's
	// machine type cannot execute.
	ErrNoProgram = errors.New("proc: program not available on this machine type")
	// ErrNoProcess: no such process.
	ErrNoProcess = errors.New("proc: no such process")
	// ErrSiteFailed: the remote site involved in fork/exec/run failed
	// (§3.3: "the new error types primarily concern cases where either
	// the calling or called machine fails").
	ErrSiteFailed = errors.New("proc: remote site failed")
	// ErrNotExecutable: the file is not a valid load module.
	ErrNotExecutable = errors.New("proc: not an executable load module")
	// ErrPipeBroken: write to a pipe whose readers are all gone (closed
	// or lost with their site) — the network EPIPE of §2.4.2.
	ErrPipeBroken = errors.New("proc: pipe broken (no readers)")
	// ErrMigrated: this incarnation of the process handed off to another
	// site; the caller should retry against the new location. Surfaced
	// only through ExitStatus during the migration handoff.
	ErrMigrated = errors.New("proc: process migrated")
)

// wrapSiteErr converts a transport-level failure (unreachable,
// circuit closed, or a retry budget exhausted by message loss) into the
// §5.6 ErrSiteFailed sentinel: every "remote site fails -> return error
// to caller" row of the failure-action table reports through it.
// Application-level errors pass through unchanged.
func wrapSiteErr(err error, site SiteID) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, netsim.ErrUnreachable) || errors.Is(err, netsim.ErrCircuitClosed) ||
		errors.Is(err, netsim.ErrTimeout) || errors.Is(err, netsim.ErrSiteDown) ||
		errors.Is(err, netsim.ErrNoHandler) {
		// ErrNoHandler: the site answers but its proc subsystem is gone —
		// from the caller's §5.6 viewpoint that site has failed.
		return fmt.Errorf("%w: site %d: %v", ErrSiteFailed, site, err)
	}
	return err
}

// wrapFsSiteErr converts a filesystem error that was itself caused by a
// site failure — the fs layer's own remote exchange failing mid-call, or
// every storage/synchronization site for the file being unreachable —
// into the §5.6 ErrSiteFailed sentinel. A local run call whose load
// module lives on a crashed site fails exactly like a remote run to that
// site. Genuine application errors (no such file, not executable, no
// such program) pass through unchanged.
func wrapFsSiteErr(err error) error {
	if err == nil || errors.Is(err, ErrSiteFailed) {
		return err
	}
	if isSiteFailure(err) || errors.Is(err, fs.ErrNoCSS) || errors.Is(err, fs.ErrNoStorageSite) {
		return fmt.Errorf("%w: %v", ErrSiteFailed, err)
	}
	return err
}

// Signal numbers (Unix-compatible subset).
type Signal int

// Signals supported across the network (§2.4.2: "Unix named pipes and
// signals are supported across the network").
const (
	SIGHUP  Signal = 1
	SIGINT  Signal = 2
	SIGKILL Signal = 9
	SIGUSR1 Signal = 10
	SIGUSR2 Signal = 12
	SIGTERM Signal = 15
	// SIGCHILDERR is the LOCUS error signal delivered to a parent when
	// the child's machine fails (§3.3).
	SIGCHILDERR Signal = 33
	// SIGPARENTERR notifies a child that its parent's machine failed.
	SIGPARENTERR Signal = 34
	// SIGMIGRATE asks the old incarnation of a migrated process to wind
	// down; cooperative program bodies return when they receive it.
	SIGMIGRATE Signal = 35
)

// PID is a network-wide process identifier: creation site + local
// number.
type PID struct {
	Site SiteID
	Num  int
}

func (p PID) String() string { return fmt.Sprintf("%d.%d", p.Site, p.Num) }

// pidLess orders PIDs by (site, number); cleanup and teardown loops
// iterate in this order so their wire effects replay deterministically.
func pidLess(a, b PID) bool {
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	return a.Num < b.Num
}

// ExitStatus is the result of a completed process.
type ExitStatus struct {
	Code int
	// Err carries the failure when the process could not run or its
	// site failed.
	Err error
}

// Program is a simulated load module body. It runs with a process
// context giving access to the filesystem and process services.
type Program func(ctx *Ctx) int

// Ctx is the execution context handed to a running program.
type Ctx struct {
	M    *Manager
	Self *Process
	Args []string
	Env  map[string]string
}

// K returns the filesystem kernel of the executing site.
func (c *Ctx) K() *fs.Kernel { return c.M.kernel }

// Cred returns the process credential.
func (c *Ctx) Cred() *fs.Cred { return c.Self.cred }

// Signals returns the process's signal channel.
func (c *Ctx) Signals() <-chan Signal { return c.Self.sigCh }

// Process is one process table entry.
type Process struct {
	pid    PID
	mgr    *Manager
	cred   *fs.Cred
	env    map[string]string
	parent PID
	// advice is the "structured advice list" controlling where new
	// processes execute (§3.1); empty means local.
	advice []SiteID

	sigCh chan Signal
	done  chan ExitStatus

	mu sync.Mutex
	// errInfo holds additional information about cross-machine errors,
	// "deposited in the parent's process structure, which can be
	// interrogated via a new system call" (§3.3).
	errInfo string
	fds     map[int]*FD
	nextFD  int
	exited  bool
	// prog/progName/args record the running load module so the process
	// can be re-instantiated at another site by Migrate; started marks a
	// process whose program body was actually spawned (shells are not).
	prog     Program
	progName string
	args     []string
	started  bool
	// migrated marks the old incarnation after a migration handoff: its
	// exit is a handoff, not a death, and must not notify the parent.
	migrated bool
	// remote holds one entry per child whose exit arrives as a message
	// (run at another site, or migrated away), from the moment Run
	// returns its pid — so a site failure reaches a Wait not yet made —
	// until a Wait consumes its status.
	remote map[PID]*remoteChild
}

// remoteChild is what a parent knows of one remote child: the channel
// of a parked Wait, or the status that beat the parent's Wait — the
// child's exit notification, or ErrSiteFailed once cleanup found its
// site lost. Both nil: running, nobody waiting yet.
type remoteChild struct {
	wait   chan ExitStatus
	exited *ExitStatus
}

// remoteChildLocked returns p's record of child, making it if need be.
// Caller holds p.mu.
func (p *Process) remoteChildLocked(child PID) *remoteChild {
	rc := p.remote[child]
	if rc == nil {
		if p.remote == nil {
			p.remote = make(map[PID]*remoteChild)
		}
		rc = &remoteChild{}
		p.remote[child] = rc
	}
	return rc
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// ErrSignals exposes the process's signal channel to non-program
// holders of the process (e.g. a shell object in tests and tools).
func (p *Process) ErrSignals() <-chan Signal { return p.sigCh }

// ErrInfo interrogates the deposited cross-machine error information.
func (p *Process) ErrInfo() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errInfo
}

// SetAdvice sets the execution-site advice list consulted by Fork,
// Exec and Run ("That information, currently a structured advice list,
// can be set dynamically" — §3.1).
func (p *Process) SetAdvice(sites ...SiteID) {
	p.mu.Lock()
	p.advice = append([]SiteID(nil), sites...)
	p.mu.Unlock()
}

func (p *Process) adviceSite() SiteID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.advice) == 0 {
		return p.mgr.site
	}
	return p.advice[0]
}

// Manager is the process-management half of one site's kernel.
type Manager struct {
	site   SiteID
	node   *netsim.Node
	kernel *fs.Kernel

	// machineType names this site's CPU type; it seeds the hidden
	// directory context so heterogeneous load modules resolve
	// transparently.
	machineType string

	mu       sync.Mutex
	procs    map[int]*Process
	nextPid  int
	registry map[string]Program
	pipes    map[storage.FileID]*pipeState
	fdHomes  map[int]*fdHome
	nextFDID int
	// migratedTo is the origin-site forwarding table for migrated
	// processes: local process number -> current host (plus the parent,
	// so losing the host can still notify it). The origin site remains
	// the network-wide name authority for the PID (§3.1).
	migratedTo map[int]migrRecord
	// migrants are foreign processes hosted here after migration, keyed
	// by their unchanged network-wide PID.
	migrants map[PID]*Process
	// localFDStates indexes this site's shared-descriptor states for
	// token yanks.
	localFDStates []*fdState
	// devices holds this site's character device drivers.
	devMu   sync.Mutex
	devices map[string]DeviceDriver

	// programs joins every spawned program goroutine (start); a test or
	// teardown path calls DrainPrograms so no program body races past
	// the site's shutdown.
	programs sync.WaitGroup

	// sigMu guards sigQueue: cross-partition signals held at the sender
	// for delivery after merge (§2.4.2: signals are supported across the
	// network; a partition only defers them).
	sigMu    sync.Mutex
	sigQueue []*signalMsg
}

// migrRecord is one origin-side forwarding entry for a migrated
// process.
type migrRecord struct {
	host   SiteID
	parent PID
}

// NewManager creates the process manager for a site.
func NewManager(node *netsim.Node, kernel *fs.Kernel, machineType string) *Manager {
	m := &Manager{
		site:        node.ID(),
		node:        node,
		kernel:      kernel,
		machineType: machineType,
		procs:       make(map[int]*Process),
		registry:    make(map[string]Program),
		pipes:       make(map[storage.FileID]*pipeState),
		fdHomes:     make(map[int]*fdHome),
		migratedTo:  make(map[int]migrRecord),
		migrants:    make(map[PID]*Process),
	}
	netsim.Handle(node, mRun, m.handleRun)
	netsim.Handle(node, mSignal, m.handleSignal)
	netsim.HandleCast(node, mChildExit, m.handleChildExit)
	netsim.Handle(node, mFDToken, m.handleFDToken)
	netsim.Handle(node, mFDYank, m.handleFDYank)
	netsim.Handle(node, mPipeOpen, m.handlePipeOpen)
	netsim.Handle(node, mPipeRead, m.handlePipeRead)
	netsim.Handle(node, mPipeWrite, m.handlePipeWrite)
	netsim.Handle(node, mPipeClose, m.handlePipeClose)
	netsim.Handle(node, mMigrate, m.handleMigrate)
	netsim.HandleCast(node, mMigrateGone, m.handleMigrateGone)
	netsim.Handle(node, mDevRead, m.handleDevRead)
	netsim.Handle(node, mDevWrite, m.handleDevWrite)
	// A crash loses every volatile process-table structure (§5.6):
	// processes, pipe buffers, descriptor tokens, queued signals.
	node.OnCrash(m.crashLocal)
	return m
}

// Site returns the manager's site.
func (m *Manager) Site() SiteID { return m.site }

// Kernel returns the site's filesystem kernel.
func (m *Manager) Kernel() *fs.Kernel { return m.kernel }

// MachineType returns the site's CPU type name.
func (m *Manager) MachineType() string { return m.machineType }

// Register installs a program in this site's registry (the set of load
// modules this machine type can run).
func (m *Manager) Register(name string, prog Program) {
	m.mu.Lock()
	m.registry[name] = prog
	m.mu.Unlock()
}

// InitProcess creates a root process (a login shell) at this site.
func (m *Manager) InitProcess(cred *fs.Cred) *Process {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.newProcessLocked(cred, nil, PID{})
}

func (m *Manager) newProcessLocked(cred *fs.Cred, env map[string]string, parent PID) *Process {
	m.nextPid++
	c := *cred
	if len(c.HiddenCtx) == 0 {
		c.HiddenCtx = []string{m.machineType}
	}
	p := &Process{
		pid:    PID{Site: m.site, Num: m.nextPid},
		mgr:    m,
		cred:   &c,
		env:    copyEnv(env),
		parent: parent,
		sigCh:  make(chan Signal, 16),
		done:   make(chan ExitStatus, 1),
		fds:    make(map[int]*FD),
	}
	m.procs[p.pid.Num] = p
	return p
}

func copyEnv(env map[string]string) map[string]string {
	out := make(map[string]string, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// Process looks up a local process by number.
func (m *Manager) Process(num int) (*Process, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.procs[num]
	return p, ok
}

// mRun is parent site → execution site: spawn the child there. Like
// every proc request/response message it changes remote state (run
// spawns a process, signal delivers, the token protocol moves the
// offset token, piperead consumes buffered bytes), so each is declared
// AtMostOnce beside its structs: a retried exchange whose first
// response was lost returns the recorded outcome instead of spawning a
// second process or consuming the pipe twice.
var mRun = netsim.Method[runReq, runResp]{Name: "proc.run", AtMostOnce: true}

// runReq ships everything needed to initialize the new process's
// environment at the destination (§3.1: "it is necessary to initialize
// the new process' environment correctly").
type runReq struct {
	Parent PID
	Cred   fs.Cred
	Env    map[string]string
	Path   string
	Args   []string
}

type runResp struct {
	PID PID
}

// Run implements the LOCUS run call: the effect of a fork followed by
// an exec, without copying the parent image (§3.1). The execution site
// comes from the process's advice list; run "is transparent as to
// where it executes". It returns the child's network-wide PID.
func (m *Manager) Run(parent *Process, path string, args []string) (PID, error) {
	target := parent.adviceSite()
	req := &runReq{Parent: parent.pid, Cred: *parent.cred, Env: parent.env, Path: path, Args: args}
	if target == m.site {
		r, err := m.handleRun(m.site, req)
		if err != nil {
			// Even a local run can fail because a site died: the load
			// module's storage site or CSS may be gone (wrapFsSiteErr).
			return PID{}, wrapFsSiteErr(err)
		}
		return r.PID, nil
	}
	resp, err := netsim.Call(m.node, target, mRun, req)
	if err != nil {
		// §5.6: "Remote Fork/Exec, remote site fails -> return error to
		// caller". wrapSiteErr also covers the retry budget exhausted by
		// message loss (ErrTimeout), which previously leaked the raw
		// transport error and lost the sentinel. Application-level
		// failures (no such program, no such file) pass through
		// unchanged — unless they are themselves a site failure the
		// destination hit while resolving the load module.
		return PID{}, wrapFsSiteErr(wrapSiteErr(err, target))
	}
	parent.mu.Lock()
	parent.remoteChildLocked(resp.PID)
	parent.mu.Unlock()
	return resp.PID, nil
}

// handleRun allocates and starts the process at the destination site.
func (m *Manager) handleRun(_ SiteID, req *runReq) (*runResp, error) {
	prog, name, args, err := m.loadModule(&req.Cred, req.Path, req.Args)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	child := m.newProcessLocked(&req.Cred, req.Env, req.Parent)
	m.mu.Unlock()
	child.mu.Lock()
	child.progName = name
	child.mu.Unlock()
	m.start(child, prog, args)
	return &runResp{PID: child.pid}, nil
}

// loadModule resolves a pathname to an executable load module and the
// registered program it names (returned by name so migration can
// re-resolve it at the target site). Hidden directories make the same
// command name resolve to the right per-machine-type module.
func (m *Manager) loadModule(cred *fs.Cred, path string, args []string) (Program, string, []string, error) {
	// "To get the proper load modules executed when the user types a
	// command ... requires using the context of which machine the user
	// is executing on" (§2.4.1): hidden directories resolve with the
	// executing site's machine type, whatever context the caller came
	// with.
	execCred := *cred
	execCred.HiddenCtx = append([]string{m.machineType}, cred.HiddenCtx...)
	f, err := m.kernel.Open(&execCred, path, fs.ModeRead)
	if err != nil {
		return nil, "", nil, err
	}
	defer f.Close() //locus:vet-allow uncheckedcall read-only
	content, err := f.ReadAll()
	if err != nil {
		return nil, "", nil, err
	}
	line := strings.TrimSpace(strings.SplitN(string(content), "\n", 2)[0])
	if !strings.HasPrefix(line, "go:") {
		return nil, "", nil, fmt.Errorf("%w: %s", ErrNotExecutable, path)
	}
	name := strings.TrimPrefix(line, "go:")
	m.mu.Lock()
	prog, ok := m.registry[name]
	m.mu.Unlock()
	if !ok {
		return nil, "", nil, fmt.Errorf("%w: %q at site %d (%s)", ErrNoProgram, name, m.site, m.machineType)
	}
	return prog, name, append([]string{path}, args...), nil
}

// start runs a program in the process. The goroutine is registered
// with m.programs before it spawns; DrainPrograms joins it after the
// program body and its exit processing have completed.
func (m *Manager) start(p *Process, prog Program, args []string) {
	p.mu.Lock()
	p.prog = prog
	p.args = append([]string(nil), args...)
	p.started = true
	p.mu.Unlock()
	m.programs.Add(1)
	go func() {
		defer m.programs.Done()
		code := prog(&Ctx{M: m, Self: p, Args: args, Env: p.env})
		m.exit(p, ExitStatus{Code: code})
	}()
}

// DrainPrograms blocks until every spawned program goroutine — the
// program body plus its exit processing — has finished. Tests and
// teardown paths call this so a program cannot keep mutating process
// or kernel state after the site is torn down; without the join,
// drain order under the chaos harness is nondeterministic.
func (m *Manager) DrainPrograms() {
	m.programs.Wait()
}

// Exec replaces the process's program: resolve the load module (through
// hidden directories) and run it to completion in the calling process.
// Unlike Unix this simulation returns the program's exit status rather
// than never returning.
func (m *Manager) Exec(p *Process, path string, args []string) (int, error) {
	prog, _, argv, err := m.loadModule(p.cred, path, args)
	if err != nil {
		return -1, wrapFsSiteErr(err)
	}
	code := prog(&Ctx{M: m, Self: p, Args: argv, Env: p.env})
	return code, nil
}

// Fork creates a child process at the advice site. The child runs fn —
// standing in for "continue from the fork point with a copy of the
// parent image"; for a remote fork the relevant state (credentials,
// environment, shared descriptors) is shipped, and fn must be a
// registered program name on heterogeneous sites. Local forks may pass
// any closure via RegisterLocal-style helpers.
func (m *Manager) Fork(parent *Process, fn Program) (*Process, error) {
	target := parent.adviceSite()
	if target != m.site {
		return nil, fmt.Errorf("proc: remote fork requires a registered program; use Run (site %d)", target)
	}
	m.mu.Lock()
	child := m.newProcessLocked(parent.cred, parent.env, parent.pid)
	// Unix fork shares open file descriptors with the parent (§3.1);
	// the shared-offset token scheme keeps the file position
	// consistent.
	for n, fd := range parent.fds {
		child.fds[n] = fd.share()
	}
	child.nextFD = parent.nextFD
	m.mu.Unlock()
	m.start(child, fn, nil)
	return child, nil
}

// exit completes a process and notifies its parent.
func (m *Manager) exit(p *Process, st ExitStatus) {
	p.mu.Lock()
	if p.exited {
		p.mu.Unlock()
		return
	}
	p.exited = true
	migrated := p.migrated
	fds := p.fds
	p.fds = map[int]*FD{}
	p.mu.Unlock()
	// Close in descriptor order: a close can cross the network (token
	// yank, remote storage), and wire-send order is part of the
	// deterministic schedule seed replay pins.
	nums := make([]int, 0, len(fds))
	for num := range fds {
		nums = append(nums, num)
	}
	sort.Ints(nums)
	for _, num := range nums {
		fds[num].Close() // error unchecked by design: releasing on exit
	}
	if migrated {
		// Handoff, not death: the new incarnation owns the parent
		// notification. Wait's local path sees ErrMigrated and chases the
		// forwarding record instead of reaping.
		p.done <- ExitStatus{Code: st.Code, Err: ErrMigrated}
		return
	}
	// The process stays in the table as a zombie until reaped by Wait.
	p.done <- st
	if p.pid.Site != m.site {
		// Migrant hosted here: retire it from the migrant table, tell the
		// origin to drop its forwarding record, and notify the parent
		// directly (the origin only forwards while the process lives).
		m.mu.Lock()
		delete(m.migrants, p.pid)
		m.mu.Unlock()
		if p.parent != (PID{}) {
			msg := &childExitMsg{
				Child: p.pid, Parent: p.parent, Code: st.Code,
				SiteFailed: st.Err != nil && errors.Is(st.Err, ErrSiteFailed),
			}
			if p.parent.Site == m.site {
				m.handleChildExit(m.site, msg) // error unchecked by design: local delivery
			} else {
				netsim.Cast(m.node, p.parent.Site, mChildExit, msg) //locus:vet-allow uncheckedcall parent site failure handled by its own cleanup
			}
		}
		netsim.Cast(m.node, p.pid.Site, mMigrateGone, &migrateGoneMsg{PID: p.pid}) //locus:vet-allow uncheckedcall origin failure handled by partition cleanup
		return
	}
	// Notify the parent's site so Wait unblocks across machines; a
	// remotely-parented process has no local waiter, so reap it here.
	if p.parent != (PID{}) && p.parent.Site != m.site {
		netsim.Cast(m.node, p.parent.Site, mChildExit, &childExitMsg{ //locus:vet-allow uncheckedcall parent site failure handled by its own cleanup
			Child: p.pid, Parent: p.parent, Code: st.Code,
			SiteFailed: st.Err != nil && errors.Is(st.Err, ErrSiteFailed),
		})
		m.mu.Lock()
		delete(m.procs, p.pid.Num)
		m.mu.Unlock()
	}
}

// mChildExit (one-way) tells the parent's site a child exited.
var mChildExit = netsim.OneWay[childExitMsg]{Name: "proc.childexit"}

type childExitMsg struct {
	Child  PID
	Parent PID
	Code   int
	// SiteFailed marks an exit forced by a site failure rather than a
	// normal return; the parent's ExitStatus carries ErrSiteFailed (§5.6).
	SiteFailed bool
}

func (m *Manager) handleChildExit(_ SiteID, msg *childExitMsg) error {
	st := ExitStatus{Code: msg.Code}
	if msg.SiteFailed {
		st.Err = fmt.Errorf("%w: child %v lost with its executing site", ErrSiteFailed, msg.Child)
	}
	m.mu.Lock()
	var parent *Process
	if msg.Parent.Site == m.site {
		parent = m.procs[msg.Parent.Num]
		if parent == nil {
			if rec, ok := m.migratedTo[msg.Parent.Num]; ok {
				// The parent itself migrated; chase it.
				m.mu.Unlock()
				netsim.Cast(m.node, rec.host, mChildExit, msg) //locus:vet-allow uncheckedcall host failure handled by partition cleanup
				return nil
			}
		}
	} else {
		parent = m.migrants[msg.Parent]
	}
	var ch chan ExitStatus
	if parent != nil {
		parent.mu.Lock()
		if rc := parent.remoteChildLocked(msg.Child); rc.wait != nil {
			ch = rc.wait
			delete(parent.remote, msg.Child)
		} else {
			// The child beat the parent's Wait; bank the status.
			rc.exited = &st
		}
		parent.mu.Unlock()
	}
	m.mu.Unlock()
	if ch != nil {
		ch <- st
	}
	return nil
}

// Wait blocks until the identified child exits and returns its status.
// For a local child it waits on the process directly; for a remote or
// migrated child it registers for the exit notification message.
func (m *Manager) Wait(parent *Process, child PID) ExitStatus {
	if child.Site == m.site {
		m.mu.Lock()
		cp := m.procs[child.Num]
		_, forwarded := m.migratedTo[child.Num]
		m.mu.Unlock()
		if cp != nil {
			st := <-cp.done
			if errors.Is(st.Err, ErrMigrated) {
				// Handoff: the live incarnation runs elsewhere now; wait
				// on it through the exit-notification machinery.
				return m.waitRemote(parent, child)
			}
			m.mu.Lock()
			delete(m.procs, child.Num) // reap the zombie
			m.mu.Unlock()
			return st
		}
		if !forwarded {
			return ExitStatus{Code: -1, Err: ErrNoProcess}
		}
	}
	return m.waitRemote(parent, child)
}

// waitRemote registers for the child's exit notification, then rechecks
// reachability. The register-then-recheck order closes the race with
// CleanupAfterPartitionChange: if the child's host died before we
// registered, the cleanup scan that fails pending waits has already
// run, so without the recheck this wait would hang forever (§5.6:
// "return error to caller", never hang). The recheck sees only a host
// that is unreachable now; one that was lost and has come back is why
// Run records its children and cleanup banks their loss.
func (m *Manager) waitRemote(parent *Process, child PID) ExitStatus {
	ch := make(chan ExitStatus, 1)
	parent.mu.Lock()
	if parent.exited {
		// The caller's own process is dead — its site crashed beneath it
		// (crashLocal marks every resident process exited and drains the
		// waits registered so far). Registering now would strand this
		// wait forever: nothing sweeps a table added to a swept-away
		// process.
		parent.mu.Unlock()
		return ExitStatus{Code: -1, Err: fmt.Errorf("%w: waiting process %v died with its site", ErrSiteFailed, parent.pid)}
	}
	rc := parent.remoteChildLocked(child)
	if rc.exited != nil {
		delete(parent.remote, child)
		parent.mu.Unlock()
		return *rc.exited
	}
	rc.wait = ch
	parent.mu.Unlock()
	host := child.Site
	m.mu.Lock()
	if rec, ok := m.migratedTo[child.Num]; ok && child.Site == m.site {
		host = rec.host
	}
	m.mu.Unlock()
	if host != m.site && !m.node.Network().Connected(m.site, host) {
		parent.mu.Lock()
		if parent.remote[child] == rc {
			delete(parent.remote, child)
			parent.mu.Unlock()
			return ExitStatus{Code: -1, Err: fmt.Errorf("%w: child %v at site %d unreachable", ErrSiteFailed, child, host)}
		}
		// Cleanup or the exit notification claimed the channel between
		// our registration and the recheck; honor its answer.
		parent.mu.Unlock()
	}
	return <-ch
}

// mSignal delivers a signal at the target's site.
var mSignal = netsim.Method[signalMsg, netsim.Ack]{Name: "proc.signal", AtMostOnce: true}

type signalMsg struct {
	Target PID
	Sig    Signal
	Info   string
}

// Signal delivers a signal to any process in the network; "process
// interaction is the same, independent of location" (§1).
func (m *Manager) Signal(target PID, sig Signal) error {
	return m.signalInfo(target, sig, "")
}

// isSiteFailure reports whether err is (or wraps) any of the
// site-failure sentinels — transport-level or the proc-layer
// ErrSiteFailed, whose wrapping flattens the transport chain.
func isSiteFailure(err error) bool {
	return errors.Is(err, ErrSiteFailed) || errors.Is(err, netsim.ErrUnreachable) ||
		errors.Is(err, netsim.ErrCircuitClosed) || errors.Is(err, netsim.ErrTimeout) ||
		errors.Is(err, netsim.ErrSiteDown) || errors.Is(err, netsim.ErrNoHandler)
}

func (m *Manager) signalInfo(target PID, sig Signal, info string) error {
	msg := &signalMsg{Target: target, Sig: sig, Info: info}
	_, err := netsim.CallAt(m.node, target.Site, mSignal, m.handleSignal, msg)
	if err != nil && isSiteFailure(err) {
		// §2.4.2: signals are supported across the network; a partition
		// only defers them. Queue at the sender and replay after merge.
		m.sigMu.Lock()
		m.sigQueue = append(m.sigQueue, msg)
		m.sigMu.Unlock()
		m.node.Network().Meter().AddSignalsQueued()
		return fmt.Errorf("%w: signal %d to %v queued for delivery after merge: %v", ErrSiteFailed, sig, target, err)
	}
	// Anything the queue predicate let through is either an application
	// error (no such process) or a transport sentinel a future predicate
	// misses; the funnel keeps the §5.6 classification airtight either
	// way (sentinelerr pins this).
	return wrapSiteErr(err, target.Site)
}

// QueuedSignals reports the number of cross-partition signals queued at
// this site awaiting replay after merge.
func (m *Manager) QueuedSignals() int {
	m.sigMu.Lock()
	defer m.sigMu.Unlock()
	return len(m.sigQueue)
}

func (m *Manager) handleSignal(_ SiteID, msg *signalMsg) (*netsim.Ack, error) {
	m.mu.Lock()
	var proc *Process
	if msg.Target.Site == m.site {
		proc = m.procs[msg.Target.Num]
		if proc == nil {
			if rec, ok := m.migratedTo[msg.Target.Num]; ok {
				// The origin stays the network-wide name authority for the
				// PID (§3.1); forward to the current host.
				m.mu.Unlock()
				_, err := netsim.Call(m.node, rec.host, mSignal, msg)
				return nil, wrapSiteErr(err, rec.host)
			}
		}
	} else {
		proc = m.migrants[msg.Target]
	}
	m.mu.Unlock()
	if proc == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoProcess, msg.Target)
	}
	if msg.Info != "" {
		proc.mu.Lock()
		proc.errInfo = msg.Info
		proc.mu.Unlock()
	}
	if msg.Sig == SIGKILL {
		m.kill(proc, ExitStatus{Code: -int(SIGKILL)})
		return nil, nil
	}
	select {
	case proc.sigCh <- msg.Sig:
	default: // queue full: drop, like Unix pending-signal collapse
	}
	return nil, nil
}

// kill ends p with status st, then nudges its signal channel so a
// cooperative program body blocked on <-ctx.Signals() returns and
// DrainPrograms can join it. In that order: exit is idempotent and the
// first status wins, so a body nudged first could wake, return 0 and
// record that instead of the kill.
func (m *Manager) kill(p *Process, st ExitStatus) {
	m.exit(p, st)
	select {
	case p.sigCh <- SIGKILL:
	default:
	}
}

// CleanupAfterPartitionChange reflects site failures into process state
// (§3.3, §5.6): parents waiting on children at lost sites receive the
// error signal with information deposited in the process structure;
// children whose parent site was lost are notified likewise; migrants
// whose origin (name authority) was lost die; forwarding records whose
// host was lost synthesize the child's death to the parent; pipe
// endpoints at lost sites tear down so readers see EOF and writers see
// an error instead of hanging; and queued cross-partition signals are
// replayed to every site now back in the partition.
func (m *Manager) CleanupAfterPartitionChange(newPartition []SiteID) {
	in := make(map[SiteID]bool, len(newPartition))
	for _, s := range newPartition {
		in[s] = true
	}
	meter := m.node.Network().Meter()
	// Every collection below is sorted before it drives signals, exits,
	// or pipe teardown: those actions send on the wire and wake blocked
	// goroutines, and their order is part of the deterministic schedule
	// a pinned chaos seed replays (maporder pins this).
	m.mu.Lock()
	var procs []*Process
	for _, p := range m.procs {
		procs = append(procs, p)
	}
	for _, p := range m.migrants {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return pidLess(procs[i].pid, procs[j].pid) })
	var doomedMigrants []*Process
	for pid, p := range m.migrants {
		if !in[pid.Site] {
			doomedMigrants = append(doomedMigrants, p)
		}
	}
	sort.Slice(doomedMigrants, func(i, j int) bool { return pidLess(doomedMigrants[i].pid, doomedMigrants[j].pid) })
	type lostFwd struct {
		num int
		rec migrRecord
	}
	var lostFwds []lostFwd
	for num, rec := range m.migratedTo {
		if !in[rec.host] {
			lostFwds = append(lostFwds, lostFwd{num, rec})
			delete(m.migratedTo, num)
		}
	}
	sort.Slice(lostFwds, func(i, j int) bool { return lostFwds[i].num < lostFwds[j].num })
	pipeIDs := make([]storage.FileID, 0, len(m.pipes))
	for id := range m.pipes {
		pipeIDs = append(pipeIDs, id)
	}
	sort.Slice(pipeIDs, func(i, j int) bool {
		if pipeIDs[i].FG != pipeIDs[j].FG {
			return pipeIDs[i].FG < pipeIDs[j].FG
		}
		return pipeIDs[i].Inode < pipeIDs[j].Inode
	})
	pipes := make([]*pipeState, 0, len(pipeIDs))
	for _, id := range pipeIDs {
		pipes = append(pipes, m.pipes[id])
	}
	m.mu.Unlock()
	for _, p := range procs {
		// Children at lost sites: fail pending waits and signal the
		// parent; for a child nobody waits for yet, bank the failure so
		// a Wait made after the site is back still gets it (unless its
		// exit notification got here first).
		p.mu.Lock()
		var lostChildren []PID
		for child, rc := range p.remote {
			switch {
			case in[child.Site]:
			case rc.wait != nil:
				lostChildren = append(lostChildren, child)
			case rc.exited == nil:
				st := lostStatus(child)
				rc.exited = &st
			}
		}
		sort.Slice(lostChildren, func(i, j int) bool { return pidLess(lostChildren[i], lostChildren[j]) })
		for _, child := range lostChildren {
			p.remote[child].wait <- lostStatus(child)
			delete(p.remote, child)
		}
		parentLost := p.parent != (PID{}) && p.parent.Site != m.site && !in[p.parent.Site]
		p.mu.Unlock()
		for _, child := range lostChildren {
			m.signalInfo(p.pid, SIGCHILDERR, fmt.Sprintf("child %v lost: site failed", child)) // error unchecked by design: local delivery
			meter.AddOrphanNotices(1)
		}
		if parentLost {
			m.signalInfo(p.pid, SIGPARENTERR, fmt.Sprintf("parent %v lost: site failed", p.parent)) // error unchecked by design: local delivery
			meter.AddOrphanNotices(1)
		}
	}
	for _, p := range doomedMigrants {
		// Home-site failure kills the migrant: with the name authority
		// gone, no signal or wait can ever reach this incarnation again.
		m.kill(p, ExitStatus{Code: -1, Err: fmt.Errorf("%w: origin site %d lost", ErrSiteFailed, p.pid.Site)})
		meter.AddOrphanNotices(1)
	}
	for _, lf := range lostFwds {
		// The migrated process died with its host; tell the parent as if
		// an exit notification with the site-failure flag had arrived.
		msg := &childExitMsg{
			Child: PID{Site: m.site, Num: lf.num}, Parent: lf.rec.parent,
			Code: -1, SiteFailed: true,
		}
		if lf.rec.parent != (PID{}) {
			if lf.rec.parent.Site == m.site {
				m.handleChildExit(m.site, msg)                                                                                                       // error unchecked by design: local delivery
				m.signalInfo(lf.rec.parent, SIGCHILDERR, fmt.Sprintf("migrated child %d.%d lost: host site %d failed", m.site, lf.num, lf.rec.host)) // error unchecked by design: local delivery
			} else if in[lf.rec.parent.Site] {
				netsim.Cast(m.node, lf.rec.parent.Site, mChildExit, msg) //locus:vet-allow uncheckedcall parent site failure handled by its own cleanup
			}
		}
		meter.AddOrphanNotices(1)
	}
	torn := 0
	for _, ps := range pipes {
		torn += ps.dropSites(in, m.site)
	}
	if torn > 0 {
		meter.AddPipeTeardowns(torn)
	}
	m.replaySignals(in, meter)
}

// lostStatus is what a Wait for a child at a lost site returns.
func lostStatus(child PID) ExitStatus {
	return ExitStatus{Code: -1, Err: fmt.Errorf("%w: child %v", ErrSiteFailed, child)}
}

// replaySignals redelivers queued cross-partition signals whose target
// site is back in the partition. A definitive ErrNoProcess answer means
// the target is dead — the signal expires; a fresh site failure keeps
// it queued for the next merge.
func (m *Manager) replaySignals(in map[SiteID]bool, meter *netsim.Stats) {
	m.sigMu.Lock()
	pend := m.sigQueue
	m.sigQueue = nil
	m.sigMu.Unlock()
	var keep []*signalMsg
	for _, msg := range pend {
		if !in[msg.Target.Site] {
			keep = append(keep, msg)
			continue
		}
		_, err := netsim.CallAt(m.node, msg.Target.Site, mSignal, m.handleSignal, msg)
		switch {
		case err == nil:
			meter.AddSignalsReplayed(1)
		case isSiteFailure(err):
			keep = append(keep, msg)
		default:
			// ErrNoProcess or another definitive answer: the target is
			// dead, the signal dies with it.
			meter.AddSignalsExpired(1)
		}
	}
	m.sigMu.Lock()
	m.sigQueue = append(m.sigQueue, keep...)
	m.sigMu.Unlock()
}

// crashLocal discards every volatile process-table structure when this
// site crashes (§5.6): processes die, pipe buffers vanish, descriptor
// tokens and queued signals are lost. Registered via netsim.OnCrash.
func (m *Manager) crashLocal() {
	m.mu.Lock()
	procs := m.procs
	migrants := m.migrants
	pipes := m.pipes
	m.procs = make(map[int]*Process)
	m.migrants = make(map[PID]*Process)
	m.migratedTo = make(map[int]migrRecord)
	m.pipes = make(map[storage.FileID]*pipeState)
	m.fdHomes = make(map[int]*fdHome)
	m.localFDStates = nil
	m.mu.Unlock()
	m.sigMu.Lock()
	m.sigQueue = nil
	m.sigMu.Unlock()
	crashErr := fmt.Errorf("%w: site %d crashed", ErrSiteFailed, m.site)
	kill := func(p *Process) {
		// Mark the process dead and fail any local waiters (harness
		// goroutines survive the simulated crash even though "processes"
		// do not), then unblock a cooperative body stuck on
		// <-ctx.Signals() so DrainPrograms can join it — in that order,
		// as in kill.
		p.mu.Lock()
		already := p.exited
		p.exited = true
		children := p.remote
		p.remote = nil
		p.mu.Unlock()
		if !already {
			select {
			case p.done <- ExitStatus{Code: -1, Err: crashErr}:
			default:
			}
		}
		for _, rc := range children {
			if rc.wait != nil {
				rc.wait <- ExitStatus{Code: -1, Err: crashErr}
			}
		}
		select {
		case p.sigCh <- SIGKILL:
		default:
		}
	}
	for _, p := range procs {
		kill(p)
	}
	for _, p := range migrants {
		kill(p)
	}
	for _, ps := range pipes {
		ps.poison()
	}
}

// LivePIDs returns the network-wide PIDs of every started program
// process currently hosted at this site (local and migrant), excluding
// shells (never started) and zombies. The chaos harness sweeps these at
// final heal to assert nothing leaked.
func (m *Manager) LivePIDs() []PID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []PID
	collect := func(p *Process) {
		p.mu.Lock()
		if p.started && !p.exited {
			out = append(out, p.pid)
		}
		p.mu.Unlock()
	}
	for _, p := range m.procs {
		collect(p)
	}
	for _, p := range m.migrants {
		collect(p)
	}
	return out
}

// KillLocal force-terminates a process hosted at this site (local or
// migrant) without any remote exchange, reporting whether it was found.
// The chaos harness uses it to sweep strays — e.g. the far half of a
// migration whose reply was lost — after the final heal.
func (m *Manager) KillLocal(pid PID) bool {
	m.mu.Lock()
	var p *Process
	if pid.Site == m.site {
		p = m.procs[pid.Num]
	} else {
		p = m.migrants[pid]
	}
	m.mu.Unlock()
	if p == nil {
		return false
	}
	m.kill(p, ExitStatus{Code: -9})
	return true
}
