package proc_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/proc"
)

// migrateFixture: shell at site 1, a sitter started at site 1, sitter
// registered everywhere.
func migrateFixture(t *testing.T) (*harness, *proc.Process, proc.PID) {
	t.Helper()
	h := newHarness(t, 3)
	installModule(t, h.c.K(1), "/sit", "sit")
	h.c.Settle()
	for _, s := range h.c.Sites() {
		h.m(s).Register("sit", func(ctx *proc.Ctx) int {
			<-ctx.Signals()
			return 0
		})
	}
	shell := h.m(1).InitProcess(cred())
	pid, err := h.m(1).Run(shell, "/sit", nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, shell, pid
}

func TestMigrateSignalFollowsAndWaitGetsStatus(t *testing.T) {
	h, shell, pid := migrateFixture(t)
	stCh := make(chan proc.ExitStatus, 1)
	go func() { stCh <- h.m(1).Wait(shell, pid) }()
	time.Sleep(10 * time.Millisecond)

	p, ok := h.m(1).Process(pid.Num)
	if !ok {
		t.Fatal("no process")
	}
	if err := h.m(1).Migrate(p, 2); err != nil {
		t.Fatal(err)
	}
	// The PID is unchanged and the origin forwards: a signal addressed
	// to the origin reaches the incarnation at site 2.
	if err := h.m(3).Signal(pid, proc.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case st := <-stCh:
		if st.Code != 0 || st.Err != nil {
			t.Fatalf("wait after migrate = %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait never saw the migrant's exit")
	}
	h.m(1).DrainPrograms()
	h.m(2).DrainPrograms()
	if n := len(h.m(2).LivePIDs()); n != 0 {
		t.Fatalf("migrant leaked at host: %d live", n)
	}
}

func TestMigrateHostCrashFailsWaitWithSiteFailed(t *testing.T) {
	h, shell, pid := migrateFixture(t)
	stCh := make(chan proc.ExitStatus, 1)
	go func() { stCh <- h.m(1).Wait(shell, pid) }()
	time.Sleep(10 * time.Millisecond)

	p, _ := h.m(1).Process(pid.Num)
	if err := h.m(1).Migrate(p, 2); err != nil {
		t.Fatal(err)
	}
	h.c.Crash(2)
	select {
	case st := <-stCh:
		if !errors.Is(st.Err, proc.ErrSiteFailed) {
			t.Fatalf("wait after host crash = %+v, want ErrSiteFailed", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait hung after the migrant's host crashed")
	}
}

func TestMigrateOriginCrashKillsMigrant(t *testing.T) {
	h := newHarness(t, 3)
	installModule(t, h.c.K(1), "/sit", "sit")
	h.c.Settle()
	for _, s := range h.c.Sites() {
		h.m(s).Register("sit", func(ctx *proc.Ctx) int {
			<-ctx.Signals()
			return 0
		})
	}
	// Origin at site 2, so the shell's site survives.
	shell2 := h.m(2).InitProcess(cred())
	pid, err := h.m(2).Run(shell2, "/sit", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := h.m(2).Process(pid.Num)
	if err := h.m(2).Migrate(p, 3); err != nil {
		t.Fatal(err)
	}
	h.c.Crash(2)
	// Home-site failure kills the migrant: no incarnation may survive
	// the name authority.
	h.m(3).DrainPrograms()
	if n := len(h.m(3).LivePIDs()); n != 0 {
		t.Fatalf("migrant survived origin crash: %d live", n)
	}
}
