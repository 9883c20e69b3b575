package proc_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/proc"
	"repro/internal/storage"
)

type harness struct {
	c *cluster.Cluster
}

// newHarness builds an n-site cluster; odd sites are "vax", even sites
// "pdp11".
func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	var opts cluster.Options
	for s := 1; s <= n; s++ {
		spec := cluster.SiteSpec{ID: proc.SiteID(s), MachineType: "vax"}
		if s%2 == 0 {
			spec.MachineType = "pdp11"
		}
		opts.Sites = append(opts.Sites, spec)
	}
	c := cluster.MustNew(cluster.SimpleConfig(n), opts)
	t.Cleanup(c.Close)
	return &harness{c: c}
}

// m returns a site's process manager.
func (h *harness) m(s proc.SiteID) *proc.Manager { return h.c.Site(s).Proc }

func cred() *fs.Cred { return fs.DefaultCred("tester") }

// installModule writes an executable load module naming program `prog`.
func installModule(t *testing.T, k *fs.Kernel, path, prog string) {
	t.Helper()
	f, err := k.Create(cred(), path, storage.TypeRegular, 0755)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("go:" + prog + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRunLocalAndRemote(t *testing.T) {
	h := newHarness(t, 3)
	installModule(t, h.c.K(1), "/bin-echo", "echo")
	h.c.Settle()

	for _, s := range h.c.Sites() {
		s := s
		h.m(s).Register("echo", func(ctx *proc.Ctx) int {
			// Record where we executed by writing a file via the
			// transparent filesystem.
			f, err := ctx.K().Create(ctx.Cred(), fmt.Sprintf("/ran-at-%d", s), storage.TypeRegular, 0644)
			if err != nil {
				return 1
			}
			f.WriteAll([]byte("ok")) //nolint:errcheck
			f.Close()                //nolint:errcheck
			return 0
		})
	}

	shell := h.m(1).InitProcess(cred())
	// Local run.
	pid, err := h.m(1).Run(shell, "/bin-echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pid.Site != 1 {
		t.Fatalf("local run executed at site %d", pid.Site)
	}
	st := h.m(1).Wait(shell, pid)
	if st.Code != 0 || st.Err != nil {
		t.Fatalf("status %+v", st)
	}

	// Remote run via the advice list: "one can dynamically, even just
	// before process invocation, select the execution site" (§3.1).
	shell.SetAdvice(3)
	pid, err = h.m(1).Run(shell, "/bin-echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	if pid.Site != 3 {
		t.Fatalf("remote run executed at site %d, want 3", pid.Site)
	}
	st = h.m(1).Wait(shell, pid)
	if st.Code != 0 {
		t.Fatalf("remote status %+v", st)
	}
	h.c.Settle()
	if _, err := h.c.K(1).Stat(cred(), "/ran-at-3"); err != nil {
		t.Fatalf("remote execution left no trace: %v", err)
	}
}

func TestHeterogeneousExecViaHiddenDirectory(t *testing.T) {
	// §2.4.1 + §3.1: the same command name runs the right load module
	// for each machine type.
	h := newHarness(t, 2) // site 1 vax, site 2 pdp11
	k := h.c.K(1)
	if err := k.Mkdir(cred(), "/bin", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	installModule(t, k, "/bin/who@@/vax", "who-vax")
	installModule(t, k, "/bin/who@@/pdp11", "who-pdp11")
	h.c.Settle()

	ran := make(chan string, 2)
	h.m(1).Register("who-vax", func(*proc.Ctx) int { ran <- "vax"; return 0 })
	h.m(2).Register("who-pdp11", func(*proc.Ctx) int { ran <- "pdp11"; return 0 })

	// The same command name, typed on either machine.
	for _, s := range []proc.SiteID{1, 2} {
		shell := h.m(s).InitProcess(fs.DefaultCred("u"))
		pid, err := h.m(s).Run(shell, "/bin/who", nil)
		if err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
		st := h.m(s).Wait(shell, pid)
		if st.Code != 0 {
			t.Fatalf("site %d status %+v", s, st)
		}
	}
	got := map[string]bool{<-ran: true, <-ran: true}
	if !got["vax"] || !got["pdp11"] {
		t.Fatalf("executed modules: %v", got)
	}
}

func TestRunRemoteWithWrongMachineTypeFails(t *testing.T) {
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/vaxonly", "vax-prog")
	h.c.Settle()
	h.m(1).Register("vax-prog", func(*proc.Ctx) int { return 0 })
	// Not registered at site 2 (pdp11).
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	if _, err := h.m(1).Run(shell, "/vaxonly", nil); !errors.Is(err, proc.ErrNoProgram) {
		t.Fatalf("err = %v, want ErrNoProgram", err)
	}
}

func TestForkSharesDescriptors(t *testing.T) {
	h := newHarness(t, 1)
	k := h.c.K(1)
	f, err := k.Create(cred(), "/shared", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m := h.m(1)
	parent := m.InitProcess(cred())
	fd, _, err := m.OpenShared(parent, "/shared", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	// Parent reads 3 bytes, then the forked child must continue at
	// offset 3 (§3.2: "the second process receives or alters the
	// character following the one touched by the first process").
	buf := make([]byte, 3)
	if _, err := fd.Read(buf); err != nil {
		t.Fatal(err)
	}
	childRead := make(chan string, 1)
	child, err := m.Fork(parent, func(ctx *proc.Ctx) int {
		cfd, ok := ctx.Self.FD(1)
		if !ok {
			return 1
		}
		b := make([]byte, 3)
		n, err := cfd.Read(b)
		if err != nil {
			return 1
		}
		childRead <- string(b[:n])
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Wait(parent, child.PID())
	if st.Code != 0 {
		t.Fatalf("child status %+v", st)
	}
	if got := <-childRead; got != "def" {
		t.Fatalf("child read %q, want def (shared offset)", got)
	}
	// And the parent continues after the child's read.
	if _, err := fd.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ghi" {
		t.Fatalf("parent read %q, want ghi", buf)
	}
}

func TestCrossSiteSharedOffsetToken(t *testing.T) {
	h := newHarness(t, 2)
	k := h.c.K(1)
	f, err := k.Create(cred(), "/log", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("0123456789ABCDEF")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()

	p1 := h.m(1).InitProcess(cred())
	p2 := h.m(2).InitProcess(cred())
	fd1, _, err := h.m(1).OpenShared(p1, "/log", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	home, id := fd1.HomeID()
	fd2, _, err := h.m(2).AttachShared(p2, home, id, "/log", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	// Alternate reads across sites: each sees the next bytes.
	buf := make([]byte, 4)
	if _, err := fd1.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "0123" {
		t.Fatalf("fd1 first read %q", buf)
	}
	if _, err := fd2.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "4567" {
		t.Fatalf("fd2 read %q, want 4567 (token carries offset)", buf)
	}
	if _, err := fd1.Read(buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "89AB" {
		t.Fatalf("fd1 second read %q, want 89AB", buf)
	}
}

func TestSignalsAcrossNetwork(t *testing.T) {
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/waiter", "waiter")
	h.c.Settle()
	got := make(chan proc.Signal, 1)
	h.m(2).Register("waiter", func(ctx *proc.Ctx) int {
		select {
		case s := <-ctx.Signals():
			got <- s
			return 0
		case <-time.After(5 * time.Second):
			return 1
		}
	})
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	pid, err := h.m(1).Run(shell, "/waiter", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.m(1).Signal(pid, proc.SIGUSR1); err != nil {
		t.Fatal(err)
	}
	st := h.m(1).Wait(shell, pid)
	if st.Code != 0 {
		t.Fatalf("status %+v", st)
	}
	if s := <-got; s != proc.SIGUSR1 {
		t.Fatalf("signal %v", s)
	}
}

// TestKill runs 200 rounds: the kill's status must be the one Wait
// returns however the scheduler interleaves the killer with the body
// the kill wakes, whose own "return 0" must never win.
func TestKill(t *testing.T) {
	h := newHarness(t, 1)
	installModule(t, h.c.K(1), "/sleeper", "sleeper")
	h.m(1).Register("sleeper", func(ctx *proc.Ctx) int {
		<-ctx.Signals() // blocks forever unless signalled
		return 0
	})
	shell := h.m(1).InitProcess(cred())
	for round := 0; round < 200; round++ {
		pid, err := h.m(1).Run(shell, "/sleeper", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.m(1).Signal(pid, proc.SIGKILL); err != nil {
			t.Fatal(err)
		}
		st := h.m(1).Wait(shell, pid)
		if st.Code != -int(proc.SIGKILL) {
			t.Fatalf("round %d: status %+v", round, st)
		}
	}
	h.m(1).DrainPrograms()
}

func TestNamedPipeAcrossSites(t *testing.T) {
	h := newHarness(t, 3)
	if err := h.c.K(1).Mkfifo(cred(), "/fifo", 0644); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()

	pw := h.m(2).InitProcess(cred())
	pr := h.m(3).InitProcess(cred())
	w, err := h.m(2).OpenPipe(pw, "/fifo", true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := h.m(3).OpenPipe(pr, "/fifo", false)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan []byte, 1)
	go func() {
		var all []byte
		for {
			b, err := r.Read(64)
			if err == io.EOF {
				done <- all
				return
			}
			if err != nil {
				done <- nil
				return
			}
			all = append(all, b...)
		}
	}()
	if err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("pipes")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case all := <-done:
		if string(all) != "hello pipes" {
			t.Fatalf("pipe delivered %q", all)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipe reader did not finish")
	}
}

func TestChildSiteFailureSignalsParent(t *testing.T) {
	// §3.3: "When the child's machine fails, the parent receives an
	// error signal" with information deposited in the process
	// structure.
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/forever", "forever")
	h.c.Settle()
	h.m(2).Register("forever", func(ctx *proc.Ctx) int {
		<-ctx.Signals()
		return 0
	})
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	pid, err := h.m(1).Run(shell, "/forever", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone := make(chan proc.ExitStatus, 1)
	go func() { waitDone <- h.m(1).Wait(shell, pid) }()

	// Give the waiter a moment to register, then cut site 2 off.
	time.Sleep(10 * time.Millisecond)
	h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})

	select {
	case st := <-waitDone:
		if !errors.Is(st.Err, proc.ErrSiteFailed) {
			t.Fatalf("wait status %+v, want ErrSiteFailed", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wait did not unblock after child site failure")
	}
	select {
	case sig := <-shell.ErrSignals():
		if sig != proc.SIGCHILDERR {
			t.Fatalf("signal %v, want SIGCHILDERR", sig)
		}
	case <-time.After(time.Second):
		t.Fatal("no error signal delivered to parent")
	}
	if !strings.Contains(shell.ErrInfo(), "site failed") {
		t.Fatalf("ErrInfo = %q", shell.ErrInfo())
	}
}

// TestWaitAfterChildSiteRestarted: a parent that starts waiting only
// after the child's site crashed and came back must still be told
// (§5.6: "return error to caller", never hang). Nothing here depends on
// timing; the goroutine is only the guard that turns a hang into a
// failure.
func TestWaitAfterChildSiteRestarted(t *testing.T) {
	for _, staleParent := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale parent view=%v", staleParent), func(t *testing.T) {
			h := newHarness(t, 2)
			installModule(t, h.c.K(1), "/sitter", "sitter")
			h.c.Settle()
			h.m(2).Register("sitter", func(ctx *proc.Ctx) int {
				<-ctx.Signals()
				return 0
			})
			if staleParent {
				// The parent's site restarted and no merge has readmitted
				// it: its layers count only itself, though the wire
				// reaches site 2. The child's crash must still reach it.
				h.c.Crash(1)
				h.c.Net.Restart(1)
			}
			shell := h.m(1).InitProcess(cred())
			shell.SetAdvice(2)
			pid, err := h.m(1).Run(shell, "/sitter", nil)
			if err != nil {
				t.Fatal(err)
			}
			h.c.Crash(2)
			if _, err := h.c.Restart(2); err != nil {
				t.Fatal(err)
			}

			waitDone := make(chan proc.ExitStatus, 1)
			go func() { waitDone <- h.m(1).Wait(shell, pid) }()
			select {
			case st := <-waitDone:
				if !errors.Is(st.Err, proc.ErrSiteFailed) {
					t.Fatalf("wait status %+v, want ErrSiteFailed", st)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Wait made after the child's site crashed and restarted never returned")
			}
			h.m(2).DrainPrograms()
		})
	}
}

func TestRunToDownSiteReturnsError(t *testing.T) {
	// §5.6 table: "Remote Fork/Exec, remote site fails -> return error
	// to caller".
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/prog", "prog")
	h.c.Settle()
	h.m(2).Register("prog", func(*proc.Ctx) int { return 0 })
	h.c.Crash(2)
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	if _, err := h.m(1).Run(shell, "/prog", nil); !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("err = %v, want ErrSiteFailed", err)
	}
}

func TestExecNotExecutable(t *testing.T) {
	h := newHarness(t, 1)
	installModule(t, h.c.K(1), "/real", "real")
	f, err := h.c.K(1).Create(cred(), "/data.txt", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("just text")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shell := h.m(1).InitProcess(cred())
	if _, err := h.m(1).Exec(shell, "/data.txt", nil); !errors.Is(err, proc.ErrNotExecutable) {
		t.Fatalf("err = %v, want ErrNotExecutable", err)
	}
	if _, err := h.m(1).Exec(shell, "/missing", nil); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestDrainProgramsJoinsProgramBodies is the runtime regression test
// for the program-join fix: DrainPrograms must block until every
// spawned program body and its exit processing have completed, and
// must return promptly once they have. The goroutinejoin analyzer
// (TestRepositoryIsClean in internal/lint) guards the same
// m.programs wiring statically.
func TestDrainProgramsJoinsProgramBodies(t *testing.T) {
	h := newHarness(t, 1)
	installModule(t, h.c.K(1), "/blocker", "blocker")
	h.c.Settle()

	started := make(chan struct{})
	release := make(chan struct{})
	h.m(1).Register("blocker", func(*proc.Ctx) int {
		close(started)
		<-release
		return 7
	})
	shell := h.m(1).InitProcess(cred())
	pid, err := h.m(1).Run(shell, "/blocker", nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan struct{})
	go func() {
		h.m(1).DrainPrograms()
		close(drained)
	}()
	select {
	case <-drained:
		t.Fatal("DrainPrograms returned while a program body was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("DrainPrograms did not return after the program exited")
	}
	// The join covers exit processing too: the status is already
	// recorded by the time DrainPrograms returns.
	if st := h.m(1).Wait(shell, pid); st.Code != 7 {
		t.Fatalf("exit status %+v, want code 7", st)
	}
}
