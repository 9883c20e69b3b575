package proc_test

// Regression tests for sentinel-discipline holes: device I/O,
// shared-descriptor token traffic, and signal dispatch all used to leak
// raw netsim sentinels to callers on some failure paths. Each case pins the §5.6
// contract — site-failure errors surface as errors.Is(err, ErrSiteFailed)
// no matter which transport sentinel the wire produced. The last test
// pins the exit-time descriptor teardown schedule, the proc-side half of
// the maporder fixes.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/proc"
	"repro/internal/storage"
)

// wantHop fails t unless err holds the hop to site to that failed.
func wantHop(t *testing.T, err error, to proc.SiteID) {
	t.Helper()
	var hop *netsim.Error
	if !errors.As(err, &hop) || hop.To != to {
		t.Fatalf("err = %v, want the hop to site %d that failed in its chain", err, to)
	}
}

// TestDeviceIOAfterHostCrashWrapsErrSiteFailed: the device handle's
// Read/Write funnels used to pass netsim.ErrUnreachable through raw.
func TestDeviceIOAfterHostCrashWrapsErrSiteFailed(t *testing.T) {
	h := newHarness(t, 3)
	h.m(3).RegisterDevice("lp0", &printer{tape: []byte("ready")})
	if err := h.c.K(1).Mknod(cred(), "/dev-lp", 3, "lp0", 0666); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	p1 := h.m(1).InitProcess(cred())
	dev, err := h.m(1).OpenDevice(p1, "/dev-lp")
	if err != nil {
		t.Fatal(err)
	}
	h.c.Crash(3)
	_, err = dev.Read(8)
	if !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("device read from crashed host = %v, want ErrSiteFailed", err)
	}
	wantHop(t, err, 3)
	_, err = dev.Write([]byte("x"))
	if !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("device write to crashed host = %v, want ErrSiteFailed", err)
	}
	wantHop(t, err, 3)
}

// TestSharedFDTokenFetchAcrossPartitionWrapsErrSiteFailed: the token
// negotiation crossing a partition must classify, not leak, the
// transport error.
func TestSharedFDTokenFetchAcrossPartitionWrapsErrSiteFailed(t *testing.T) {
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/shared", "unused")
	h.c.Settle()

	// The descriptor is homed (and its token held) at site 2; site 1
	// attaches.
	p2 := h.m(2).InitProcess(cred())
	fd2, _, err := h.m(2).OpenShared(p2, "/shared", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer fd2.Close() //nolint:errcheck
	home, id := fd2.HomeID()
	p1 := h.m(1).InitProcess(cred())
	fd1, _, err := h.m(1).AttachShared(p1, home, id, "/shared", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer fd1.Close() //nolint:errcheck

	h.c.Partition([]proc.SiteID{1}, []proc.SiteID{2})

	buf := make([]byte, 4)
	_, err = fd1.Read(buf)
	if !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("token fetch across partition = %v, want ErrSiteFailed", err)
	}
	wantHop(t, err, 2)
}

// TestSignalToSiteWithoutManagerWrapsErrSiteFailed pins a
// classification fix: a site that is up on the wire
// but runs no process manager answers proc.signal with
// netsim.ErrNoHandler, which must read as a site failure (and queue the
// signal for replay) rather than leak the transport sentinel.
func TestSignalToSiteWithoutManagerWrapsErrSiteFailed(t *testing.T) {
	// A cluster boots a process manager at every site, so this network
	// is built by hand: site 2 is on the wire but runs no proc.Manager,
	// and no proc.* handlers exist there.
	nw := netsim.New(netsim.DefaultCosts())
	t.Cleanup(nw.Close)
	k1, err := fs.BootSite(nw.AddSite(1), cluster.SimpleConfig(2), nw.Meter(), storage.Costs{})
	if err != nil {
		t.Fatal(err)
	}
	nw.AddSite(2)
	m1 := proc.NewManager(k1.Node(), k1, "vax")
	err = m1.Signal(proc.PID{Site: 2, Num: 7}, proc.SIGTERM)
	if !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("signal to manager-less site = %v, want ErrSiteFailed", err)
	}
	wantHop(t, err, 2)
	if n := m1.QueuedSignals(); n != 1 {
		t.Fatalf("QueuedSignals = %d, want 1 (no-handler failures must queue like partitions)", n)
	}
}

// runExitCloseSchedule runs a program at site 2 that opens three
// remote-served descriptors and exits without closing them, capturing
// the wire schedule of the whole run: every request and reply point.
// The program starts once Run has returned, so every point comes from
// one goroutine at a time (the Run call and its reply, then the program
// and its exit teardown), and the capture is deterministic iff the exit
// path closes descriptors in a fixed order.
func runExitCloseSchedule(t *testing.T) []string {
	t.Helper()
	h := newHarness(t, 2)
	installModule(t, h.c.K(1), "/opener", "opener")
	h.c.Settle()
	// Data files created after the settle have no replica at site 2 yet:
	// the program's opens are served remotely, so its exit-time closes
	// cross the wire.
	for i := 0; i < 3; i++ {
		f, err := h.c.K(1).Create(cred(), fmt.Sprintf("/d%d", i), storage.TypeRegular, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.WriteAll([]byte("payload")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ran := make(chan struct{})
	for _, s := range h.c.Sites() {
		h.m(s).Register("opener", func(ctx *proc.Ctx) int {
			<-ran
			for i := 0; i < 3; i++ {
				if _, _, err := ctx.M.OpenShared(ctx.Self, fmt.Sprintf("/d%d", i), fs.ModeRead); err != nil {
					return 1
				}
			}
			return 0
		})
	}

	var sched []string
	h.c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
		sched = append(sched, fmt.Sprintf("%+v", p))
		return netsim.FaultNone
	})
	shell := h.m(1).InitProcess(cred())
	shell.SetAdvice(2)
	pid, err := h.m(1).Run(shell, "/opener", nil)
	close(ran)
	if err != nil {
		t.Fatal(err)
	}
	h.m(2).DrainPrograms()
	h.c.Net.SetObserver(nil)
	if st := h.m(1).Wait(shell, pid); st.Code != 0 {
		t.Fatalf("opener exited %d (err %v)", st.Code, st.Err)
	}
	return sched
}

// TestExitCloseScheduleDeterministic is the proc-side double-run check:
// exit() tears down the descriptor table in descriptor order, so the
// close RPCs hit the wire identically on every replay. Before the
// maporder fix this iterated p.fds raw and flaked with the map seed.
func TestExitCloseScheduleDeterministic(t *testing.T) {
	a := runExitCloseSchedule(t)
	b := runExitCloseSchedule(t)
	if len(a) == 0 {
		t.Fatal("run produced no wire sends; the schedule assertion is vacuous")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Fatalf("exit teardown wire schedules differ across identical runs:\nrun 1:\n  %s\nrun 2:\n  %s",
			strings.Join(a, "\n  "), strings.Join(b, "\n  "))
	}
}
