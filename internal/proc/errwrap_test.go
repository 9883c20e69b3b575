package proc_test

// The §5.6 error-wrapping audit: every "remote site fails -> return
// error to caller" path must return an error wrapping ErrSiteFailed so
// callers can dispatch on errors.Is without knowing the transport
// details. The table covers crash, partition, and — the regression the
// chaos checker found — retry-budget exhaustion under total message
// loss, which used to leak the raw netsim.ErrTimeout.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/proc"
)

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
		err  func(t *testing.T) error
	}{
		{
			name: "run to crashed site",
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
			err: func(t *testing.T) error {
				h := newHarness(t, 2)
				installModule(t, h.c.K(1), "/sit", "sit")
				h.c.Settle()
				registerSitter(h)
				// Both sites are up; the wire eats every proc.run
				// exchange. The retry budget runs out with ErrTimeout,
				// which must still surface as ErrSiteFailed.
				h.c.Net.EnableFaults(netsim.FaultConfig{
					Seed: 1,
					Links: map[[2]proc.SiteID]netsim.FaultRates{
						{1, 2}: {Drop: 1.0},
					},
				})
				defer h.c.Net.DisableFaults()
				shell := h.m(1).InitProcess(cred())
				shell.SetAdvice(2)
				_, err := h.m(1).Run(shell, "/sit", nil)
				return err
			},
		},
		{
			name: "signal to partitioned site",
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.err(t); !errors.Is(err, proc.ErrSiteFailed) {
				t.Fatalf("err = %v, want errors.Is(_, ErrSiteFailed)", err)
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
