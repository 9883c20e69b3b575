package proc

// Process migration (§3.1: "LOCUS permits processes to migrate during
// execution"). The model is restart-style: the origin ships the
// process's credential, environment, and load-module name to the target
// site, which re-resolves the program from its own registry and runs it
// under the SAME network-wide PID. The origin site remains the name
// authority for the PID: it keeps a forwarding record so signals and
// waits addressed to the PID chase the process to its current host, and
// the record is retired when the migrant exits. If the origin site is
// lost, the migrant dies with it — with the name authority gone no
// signal or wait could ever reach that incarnation again.

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/netsim"
)

var (
	// mMigrate re-instantiates a process at the target site.
	mMigrate = netsim.Method[migrateReq, netsim.Ack]{Name: "proc.migrate", AtMostOnce: true}
	// mMigrateGone (one-way) retires the origin's forwarding record.
	mMigrateGone = netsim.OneWay[migrateGoneMsg]{Name: "proc.migrategone"}
)

// migrateReq ships everything needed to re-instantiate the process at
// the target site.
type migrateReq struct {
	PID    PID
	Parent PID
	Cred   fs.Cred
	Env    map[string]string
	Prog   string
	Args   []string
}

type migrateGoneMsg struct {
	PID PID
}

// Migrate moves a running process to target. It must be invoked at the
// process's origin site (the PID's name authority). On success the old
// incarnation receives SIGMIGRATE and winds down as a handoff (its exit
// does not notify the parent); the new incarnation at target owns the
// exit notification.
func (m *Manager) Migrate(p *Process, target SiteID) error {
	if p.pid.Site != m.site {
		return fmt.Errorf("proc: migrate of %v must run at origin site %d", p.pid, p.pid.Site)
	}
	if target == m.site {
		return nil
	}
	p.mu.Lock()
	if p.exited || p.migrated {
		p.mu.Unlock()
		return fmt.Errorf("%w: %v", ErrNoProcess, p.pid)
	}
	if !p.started || p.progName == "" {
		p.mu.Unlock()
		return fmt.Errorf("%w: %v has no re-runnable load module", ErrNotExecutable, p.pid)
	}
	// Mark the handoff before shipping state: if the body exits during
	// the transfer, its exit is treated as part of the handoff rather
	// than a death racing the new incarnation. Rolled back on failure.
	p.migrated = true
	req := &migrateReq{
		PID: p.pid, Parent: p.parent, Cred: *p.cred,
		Env: copyEnv(p.env), Prog: p.progName,
		Args: append([]string(nil), p.args...),
	}
	p.mu.Unlock()
	if _, err := netsim.Call(m.node, target, mMigrate, req); err != nil {
		m.rollbackMigrate(p)
		// §5.6: target site failed mid-migration -> error to caller; the
		// process keeps running at the origin.
		return siteFailed(err)
	}
	m.mu.Lock()
	delete(m.procs, p.pid.Num)
	m.migratedTo[p.pid.Num] = migrRecord{host: target, parent: p.parent}
	m.mu.Unlock()
	select {
	case p.sigCh <- SIGMIGRATE:
	default:
	}
	return nil
}

// rollbackMigrate undoes the pre-transfer handoff mark after a failed
// Migrate call. If the body exited during the transfer its exit was
// banked as a handoff; replay it as a real local death.
func (m *Manager) rollbackMigrate(p *Process) {
	p.mu.Lock()
	p.migrated = false
	exited := p.exited
	p.mu.Unlock()
	if !exited {
		return
	}
	select {
	case st := <-p.done:
		st.Err = nil
		p.done <- st
		if p.parent != (PID{}) && p.parent.Site != m.site {
			netsim.Cast(m.node, p.parent.Site, mChildExit, &childExitMsg{ //locus:vet-allow uncheckedcall parent site failure handled by its own cleanup
				Child: p.pid, Parent: p.parent, Code: st.Code,
			})
			m.mu.Lock()
			delete(m.procs, p.pid.Num)
			m.mu.Unlock()
		}
	default:
	}
}

// handleMigrate re-instantiates the process at the target site under
// its unchanged network-wide PID.
func (m *Manager) handleMigrate(_ SiteID, req *migrateReq) (*netsim.Ack, error) {
	m.mu.Lock()
	prog, ok := m.registry[req.Prog]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %q at site %d (%s)", ErrNoProgram, req.Prog, m.site, m.machineType)
	}
	if _, dup := m.migrants[req.PID]; dup {
		// A retried transfer already landed; at-most-once.
		m.mu.Unlock()
		return nil, nil
	}
	c := req.Cred
	if len(c.HiddenCtx) == 0 {
		c.HiddenCtx = []string{m.machineType}
	}
	np := &Process{
		pid:      req.PID,
		mgr:      m,
		cred:     &c,
		env:      copyEnv(req.Env),
		parent:   req.Parent,
		sigCh:    make(chan Signal, 16),
		done:     make(chan ExitStatus, 1),
		fds:      make(map[int]*FD),
		progName: req.Prog,
	}
	m.migrants[req.PID] = np
	m.mu.Unlock()
	m.start(np, prog, req.Args)
	return nil, nil
}

// handleMigrateGone retires the origin-side forwarding record after the
// migrant exits at its host.
func (m *Manager) handleMigrateGone(_ SiteID, msg *migrateGoneMsg) error {
	m.mu.Lock()
	delete(m.migratedTo, msg.PID.Num)
	m.mu.Unlock()
	return nil
}
