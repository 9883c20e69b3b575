package proc_test

// The §5.6 error-wrapping audit: every "remote site fails -> return
// error to caller" path must return an error wrapping ErrSiteFailed so
// callers can dispatch on errors.Is without knowing the transport
// details. The table covers crash, partition, and — the regression the
// chaos checker found — retry-budget exhaustion under total message
// loss, which used to leak the raw netsim.ErrTimeout — and, from a
// site that stores nothing, every call whose own fs lookup or close
// fails because the one storage site is gone.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/proc"
)

// dropAll makes the wire between sites 1 and 2 eat every message, both
// ways, until the test ends.
func dropAll(t *testing.T, h *harness) {
	h.c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
		if p.Kind == netsim.PointRequest && (p.From == 1 && p.To == 2 || p.From == 2 && p.To == 1) {
			return netsim.FaultDropRequest
		}
		return netsim.FaultNone
	})
	t.Cleanup(func() { h.c.Net.SetObserver(nil) })
}

// pipeAtCSS1 is a two-site cluster whose pipe /fifo both sites store;
// site 1, the CSS, is the pipe's server.
func pipeAtCSS1(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, 2)
	if err := h.c.K(1).Mkfifo(cred(), "/fifo", 0644); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	return h
}

// newPacklessHarness boots sites 1..n with the root filegroup stored at
// site n alone: once a site is cut off from n, every name it looks up
// is a §5.6 site failure (no CSS, no storage site), not a bad pathname.
// The files it needs — a load module /m naming "sit", a device /dev and
// a pipe /fifo — are made before it returns.
func newPacklessHarness(t *testing.T, n int) *harness {
	t.Helper()
	pack := fs.PackDesc{Site: proc.SiteID(n), Lo: 1, Hi: 1000}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: []fs.PackDesc{pack}}})
	if err != nil {
		t.Fatal(err)
	}
	var opts cluster.Options
	for s := 1; s <= n; s++ {
		opts.Sites = append(opts.Sites, cluster.SiteSpec{ID: proc.SiteID(s)})
	}
	c := cluster.MustNew(cfg, opts)
	t.Cleanup(c.Close)
	h := &harness{c: c}
	installModule(t, c.K(1), "/m", "sit")
	for _, s := range c.Sites() {
		h.m(s).Register("sit", func(*proc.Ctx) int { return 0 })
	}
	if err := c.K(1).Mknod(cred(), "/dev", 2, "lp0", 0666); err != nil {
		t.Fatal(err)
	}
	if err := c.K(1).Mkfifo(cred(), "/fifo", 0644); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestSiteFailurePathsWrapErrSiteFailed(t *testing.T) {
	registerSitter := func(h *harness) {
		for _, s := range h.c.Sites() {
			h.m(s).Register("sit", func(ctx *proc.Ctx) int {
				<-ctx.Signals()
				return 0
			})
		}
	}

	cases := []struct {
		name string
		hop  proc.SiteID // the failed hop's To, when a transport failure caused the error
		err  func(t *testing.T) error
	}{
		{
			name: "run to crashed site",
			hop:  2,
			err: func(t *testing.T) error {
				h := newHarness(t, 2)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				h.c.Crash(2)
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				_, err := h.m(1).Run(shell, "/sit", nil)
				return err
			},
		},
		{
			name: "run under total message loss (retry budget exhausted)",
			hop:  2,
			err: func(t *testing.T) error {
				h := newHarness(t, 2)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				// Both sites are up; the wire eats every proc.run
				// exchange. The retry budget runs out with ErrTimeout,
				// which must still surface as ErrSiteFailed.
				h.c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
					if p.Kind == netsim.PointRequest && p.From == 1 && p.To == 2 {
						return netsim.FaultDropRequest
					}
					return netsim.FaultNone
				})
				defer h.c.Net.SetObserver(nil)
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				_, err := h.m(1).Run(shell, "/sit", nil)
				return err
			},
		},
		{
			name: "signal to partitioned site",
			hop:  2,
			err: func(t *testing.T) error {
				h := newHarness(t, 2)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				pid, err := h.m(1).Run(shell, "/sit", nil)
				if err != nil {
					t.Fatal(err)
				}
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				return h.m(1).Signal(pid, proc.SIGTERM)
			},
		},
		{
			name: "wait registered after child site already unreachable",
			err: func(t *testing.T) error {
				h := newHarness(t, 2)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				pid, err := h.m(1).Run(shell, "/sit", nil)
				if err != nil {
					t.Fatal(err)
				}
				// The partition cleanup runs BEFORE Wait registers: the
				// register-then-recheck in waitRemote is what keeps this
				// from hanging forever.
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				stCh := make(chan proc.ExitStatus, 1)
				go func() { stCh <- h.m(1).Wait(shell, pid) }()
				select {
				case st := <-stCh:
					return st.Err
				case <-time.After(5 * time.Second):
					t.Fatal("Wait hung on unreachable child site")
					return nil
				}
			},
		},
		{
			// The hole the chaos checker found (seed 27): the Wait caller's
			// own site crashes and restarts before the wait registers; the
			// registration lands on the swept-away process object, which
			// nothing will ever complete. waitRemote must notice the caller
			// died with its site instead of hanging.
			name: "wait registered by a process that died with its site",
			err: func(t *testing.T) error {
				h := newHarness(t, 2)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				pid, err := h.m(1).Run(shell, "/sit", nil)
				if err != nil {
					t.Fatal(err)
				}
				h.c.Crash(1)
				h.c.Restart(1)
				// Site 1 is back and can reach the child's site, but the
				// stale shell is a corpse from before the crash.
				stCh := make(chan proc.ExitStatus, 1)
				go func() { stCh <- h.m(1).Wait(shell, pid) }()
				select {
				case st := <-stCh:
					return st.Err
				case <-time.After(5 * time.Second):
					t.Fatal("Wait hung on a stale pre-crash process")
					return nil
				}
			},
		},
		{
			name: "migrate to crashed site",
			hop:  3,
			err: func(t *testing.T) error {
				h := newHarness(t, 3)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				shell := h.m(1).InitProcess(cred())
				pid, err := h.m(1).Run(shell, "/sit", nil)
				if err != nil {
					t.Fatal(err)
				}
				p, ok := h.m(1).Process(pid.Num)
				if !ok {
					t.Fatal("no process")
				}
				h.c.Crash(3)
				err = h.m(1).Migrate(p, 3)
				// The process must keep running at the origin.
				if sErr := h.m(1).Signal(pid, proc.SIGTERM); sErr != nil {
					t.Fatalf("process gone after failed migrate: %v", sErr)
				}
				return err
			},
		},
		{
			// Site 2 stores the pipe and looks it up locally; the wire
			// eats the open at its server, the CSS (site 1).
			name: "open pipe under total message loss to its server",
			hop:  1,
			err: func(t *testing.T) error {
				h := pipeAtCSS1(t)
				dropAll(t, h)
				_, err := h.m(2).OpenPipe(h.m(2).InitProcess(cred()), "/fifo", false)
				return err
			},
		},
		{
			name: "close pipe under total message loss to its server",
			hop:  1,
			err: func(t *testing.T) error {
				h := pipeAtCSS1(t)
				pe, err := h.m(2).OpenPipe(h.m(2).InitProcess(cred()), "/fifo", false)
				if err != nil {
					t.Fatal(err)
				}
				dropAll(t, h)
				return pe.Close()
			},
		},
		{
			// Site 3 holds a read delegation on /m, and the wire eats
			// every transmission of the revoke that site 2's modify open
			// has the CSS (site 1) send it. fs refuses the open with
			// ErrBusy, which wraps the lost revoke.
			name: "modify open of a shared descriptor whose revoke is lost",
			hop:  3,
			err: func(t *testing.T) error {
				h := newHarness(t, 3)
				installModule(t, h.c.K(1), "/m", "sit")
				h.c.Settle()
				f, err := h.c.K(3).Open(cred(), "/m", fs.ModeRead)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				if len(h.c.K(3).Delegations()) == 0 {
					t.Fatal("site 3 holds no delegation")
				}
				h.c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
					if p.Kind == netsim.PointRequest && p.Method == "fs.leaserevoke" {
						return netsim.FaultDropRequest
					}
					return netsim.FaultNone
				})
				defer h.c.Net.SetObserver(nil)
				_, _, err = h.m(2).OpenShared(h.m(2).InitProcess(cred()), "/m", fs.ModeModify)
				if !errors.Is(err, fs.ErrBusy) {
					t.Errorf("err = %v, want fs.ErrBusy too", err)
				}
				return err
			},
		},
		// Each row below fails inside the fs layer (pathname search, open,
		// close) at a site cut off from the only storage site; the
		// siteFailed funnel at each call is what classifies it.
		{
			name: "open device whose storage site is cut off",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				_, err := h.m(1).OpenDevice(h.m(1).InitProcess(cred()), "/dev")
				return err
			},
		},
		{
			name: "open shared descriptor whose storage site is cut off",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				_, _, err := h.m(1).OpenShared(h.m(1).InitProcess(cred()), "/m", fs.ModeRead)
				return err
			},
		},
		{
			name: "attach shared descriptor whose storage site is cut off",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				_, _, err := h.m(1).AttachShared(h.m(1).InitProcess(cred()), 2, 1, "/m", fs.ModeRead)
				return err
			},
		},
		{
			// The wire eats the close's commit before any cleanup has
			// run: the fs handle's own exchange fails.
			name: "last close of a shared descriptor under total message loss",
			hop:  2,
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				fd, _, err := h.m(1).OpenShared(h.m(1).InitProcess(cred()), "/m", fs.ModeModify)
				if err != nil {
					t.Fatal(err)
				}
				dropAll(t, h)
				return fd.Close()
			},
		},
		{
			name: "open pipe whose storage site is cut off",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				_, err := h.m(1).OpenPipe(h.m(1).InitProcess(cred()), "/fifo", false)
				return err
			},
		},
		{
			name: "local run whose load module's storage site is cut off",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				_, err := h.m(1).Run(h.m(1).InitProcess(cred()), "/m", nil)
				return err
			},
		},
		{
			// Site 2 runs the child but cannot reach the module's storage
			// site: its fs error comes back as the reply, not as a
			// transport failure of the run itself.
			name: "remote run whose load module's storage site the destination cannot reach",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 3)
				h.c.Partition([]proc.SiteID{1, 2}, []proc.SiteID{3})
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				_, err := h.m(1).Run(shell, "/m", nil)
				return err
			},
		},
		{
			name: "exec whose load module's storage site is cut off",
			err: func(t *testing.T) error {
				h := newPacklessHarness(t, 2)
				h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
				_, err := h.m(1).Exec(h.m(1).InitProcess(cred()), "/m", nil)
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.err(t)
			if !errors.Is(err, proc.ErrSiteFailed) {
				t.Fatalf("err = %v, want errors.Is(_, ErrSiteFailed)", err)
			}
			var hop *netsim.Error
			if found := errors.As(err, &hop); found != (tc.hop != 0) || found && hop.To != tc.hop {
				t.Fatalf("err = %v, want the hop to site %d that failed in its chain (0: none)", err, tc.hop)
			}
		})
	}
}

func TestSignalQueuedAcrossPartitionReplaysAfterMerge(t *testing.T) {
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/sit", "sit")
	h.c.Settle()
	for _, s := range h.c.Sites() {
		h.m(s).Register("sit", func(ctx *proc.Ctx) int {
			<-ctx.Signals()
			return 0
		})
	}
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	pid, err := h.m(1).Run(shell, "/sit", nil)
	if err != nil {
		t.Fatal(err)
	}
	stCh := make(chan proc.ExitStatus, 1)
	go func() { stCh <- h.m(1).Wait(shell, pid) }()
	time.Sleep(10 * time.Millisecond)

	h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
	// The wait fails with the partition (§5.6)...
	select {
	case st := <-stCh:
		if !errors.Is(st.Err, proc.ErrSiteFailed) {
			t.Fatalf("wait across partition = %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait hung across partition")
	}
	// ...and the signal queues at the sender instead of vanishing.
	if err := h.m(1).Signal(pid, proc.SIGTERM); !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("cross-partition signal = %v, want ErrSiteFailed", err)
	}
	if n := h.m(1).QueuedSignals(); n != 1 {
		t.Fatalf("QueuedSignals = %d, want 1", n)
	}

	if err := h.c.Heal(); err != nil {
		t.Fatal(err)
	}
	if n := h.m(1).QueuedSignals(); n != 0 {
		t.Fatalf("QueuedSignals after merge = %d, want 0", n)
	}
	// The replayed SIGTERM lets the sitter exit.
	h.m(2).DrainPrograms()
	snap := h.c.Net.Stats()
	if snap.SignalsQueued != 1 || snap.SignalsReplayed+snap.SignalsExpired != 1 {
		t.Fatalf("signal counters %+v, want 1 queued and 1 replayed-or-expired", snap)
	}
}

// TestLostSignalReplayStaysQueued: a signal queued across a partition
// whose replay at the merge the wire eats stays queued at the sender,
// like one whose target is still cut off; it does not expire as though
// the target had answered that no such process exists.
func TestLostSignalReplayStaysQueued(t *testing.T) {
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/sit", "sit")
	h.c.Settle()
	for _, s := range h.c.Sites() {
		h.m(s).Register("sit", func(ctx *proc.Ctx) int {
			<-ctx.Signals()
			return 0
		})
	}
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	pid, err := h.m(1).Run(shell, "/sit", nil)
	if err != nil {
		t.Fatal(err)
	}
	h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})
	if err := h.m(1).Signal(pid, proc.SIGTERM); !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("cross-partition signal = %v, want ErrSiteFailed", err)
	}
	h.c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
		if p.Kind == netsim.PointRequest && p.Method == "proc.signal" {
			return netsim.FaultDropRequest
		}
		return netsim.FaultNone
	})
	if err := h.c.Heal(); err != nil {
		t.Fatal(err)
	}
	h.c.Net.SetObserver(nil)
	if n := h.m(1).QueuedSignals(); n != 1 {
		t.Fatalf("QueuedSignals after a merge whose replay was lost = %d, want 1", n)
	}
	if snap := h.c.Net.Stats(); snap.SignalsExpired != 0 {
		t.Fatalf("SignalsExpired = %d, want 0", snap.SignalsExpired)
	}
	// The partition ended the sitter: its parent's site was lost.
	h.m(2).DrainPrograms()
}
