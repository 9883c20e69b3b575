package proc_test

// Deterministic regression tests for the §5.6 pipe rows: losing the
// far endpoint's site must convert into EOF (reader side) or an error
// (writer side) — never a hang.

import (
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/proc"
)

// pipeFixture creates /fifo, opens a probe end to learn the server
// site, and returns the surviving-site helpers.
func pipeFixture(t *testing.T) (*harness, proc.SiteID) {
	t.Helper()
	h := newHarness(t, 3)
	if err := h.c.K(1).Mkfifo(cred(), "/fifo", 0644); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	probe := h.mgrs[1].InitProcess(cred())
	pe, err := h.mgrs[1].OpenPipe(probe, "/fifo", true)
	if err != nil {
		t.Fatal(err)
	}
	server := pe.Server()
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	return h, server
}

// otherSite returns a site different from every argument.
func otherSite(t *testing.T, h *harness, not ...proc.SiteID) proc.SiteID {
	t.Helper()
	for _, s := range h.c.Sites() {
		excluded := false
		for _, n := range not {
			if s == n {
				excluded = true
			}
		}
		if !excluded {
			return s
		}
	}
	t.Fatal("no site left")
	return 0
}

// procCleanup runs the proc-layer §5.6 cleanup at every surviving site
// (cluster.Crash only drives the fs kernels; proc tests own their
// managers).
func procCleanup(h *harness, up []proc.SiteID) {
	for _, s := range up {
		h.mgrs[s].CleanupAfterPartitionChange(up)
	}
}

func survivors(h *harness, dead proc.SiteID) []proc.SiteID {
	var up []proc.SiteID
	for _, s := range h.c.Sites() {
		if s != dead {
			up = append(up, s)
		}
	}
	return up
}

func TestPipeWriterSiteCrashDeliversEOF(t *testing.T) {
	h, server := pipeFixture(t)
	wsite := otherSite(t, h, server, 1)

	pr := h.mgrs[1].InitProcess(cred())
	r, err := h.mgrs[1].OpenPipe(pr, "/fifo", false)
	if err != nil {
		t.Fatal(err)
	}
	pw := h.mgrs[wsite].InitProcess(cred())
	w, err := h.mgrs[wsite].OpenPipe(pw, "/fifo", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	if b, err := r.Read(16); err != nil || string(b) != "pre" {
		t.Fatalf("read %q, %v", b, err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := r.Read(16)
		done <- err
	}()
	// Let the read block at the server, then kill the writer's site.
	time.Sleep(10 * time.Millisecond)
	h.c.Crash(wsite)
	procCleanup(h, survivors(h, wsite))

	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("blocked read returned %v, want io.EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader hung after writer-site crash; §5.6 requires EOF")
	}
}

func TestPipeReaderSiteCrashBreaksWriter(t *testing.T) {
	h, server := pipeFixture(t)
	rsite := otherSite(t, h, server, 1)

	pw := h.mgrs[1].InitProcess(cred())
	w, err := h.mgrs[1].OpenPipe(pw, "/fifo", true)
	if err != nil {
		t.Fatal(err)
	}
	pr := h.mgrs[rsite].InitProcess(cred())
	if _, err := h.mgrs[rsite].OpenPipe(pr, "/fifo", false); err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]byte("alive")); err != nil {
		t.Fatal(err)
	}

	h.c.Crash(rsite)
	procCleanup(h, survivors(h, rsite))

	if err := w.Write([]byte("dead")); !errors.Is(err, proc.ErrPipeBroken) {
		t.Fatalf("write after reader-site crash = %v, want ErrPipeBroken", err)
	}
}

func TestPipeServerSiteCrashFailsBothEnds(t *testing.T) {
	h, server := pipeFixture(t)
	wsite := otherSite(t, h, server)
	rsite := otherSite(t, h, server, wsite)

	pw := h.mgrs[wsite].InitProcess(cred())
	w, err := h.mgrs[wsite].OpenPipe(pw, "/fifo", true)
	if err != nil {
		t.Fatal(err)
	}
	pr := h.mgrs[rsite].InitProcess(cred())
	r, err := h.mgrs[rsite].OpenPipe(pr, "/fifo", false)
	if err != nil {
		t.Fatal(err)
	}

	h.c.Crash(server)
	procCleanup(h, survivors(h, server))

	if err := w.Write([]byte("x")); !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("write to crashed server = %v, want ErrSiteFailed", err)
	}
	if _, err := r.Read(1); !errors.Is(err, proc.ErrSiteFailed) {
		t.Fatalf("read from crashed server = %v, want ErrSiteFailed", err)
	}
}

// A reader parked at a remote pipe server waits there on its own
// goroutine, inside its call: the transport does not fail a call whose
// handler has not returned, so §5.6 cleanup and the crash callback are
// the only things that release it. The three tests below are the net
// under that one release path (the third is locus's
// TestPartitionReleasesReaderParkedAtRemotePipeServer).

// parkRemoteReader opens a writer at the server (so the pipe is not at
// EOF) and a reader at another site, starts a Read there and returns
// once the request is on the wire and has had a moment to park.
func parkRemoteReader(t *testing.T) (h *harness, server, rsite proc.SiteID, done <-chan error) {
	t.Helper()
	h, server = pipeFixture(t)
	rsite = otherSite(t, h, server)
	pw := h.mgrs[server].InitProcess(cred())
	if _, err := h.mgrs[server].OpenPipe(pw, "/fifo", true); err != nil {
		t.Fatal(err)
	}
	pr := h.mgrs[rsite].InitProcess(cred())
	r, err := h.mgrs[rsite].OpenPipe(pr, "/fifo", false)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan struct{})
	h.c.Net.SetTrace(func(from, to proc.SiteID, method string) {
		if method == "proc.piperead" && from == rsite && to == server {
			close(sent)
		}
	})
	errc := make(chan error, 1)
	go func() {
		_, err := r.Read(16)
		errc <- err
	}()
	<-sent
	h.c.Net.SetTrace(nil)
	time.Sleep(10 * time.Millisecond)
	return h, server, rsite, errc
}

func awaitSiteFailed(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		if !errors.Is(err, proc.ErrSiteFailed) {
			t.Fatalf("parked read returned %v after %s, want ErrSiteFailed", err, what)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("reader still parked at the pipe server after %s; §5.6 requires an error, never a hang", what)
	}
}

func TestPipeServerCrashReleasesParkedRemoteReader(t *testing.T) {
	h, server, _, done := parkRemoteReader(t)
	// The crash callback poisons the buffer; nothing else runs.
	h.c.Net.Crash(server)
	awaitSiteFailed(t, done, "the server site crashed")
}

func TestPipeServerCleanupReleasesPartitionedRemoteReader(t *testing.T) {
	h, server, rsite, done := parkRemoteReader(t)
	rest := survivors(h, rsite)
	h.c.Net.PartitionGroups([]proc.SiteID{rsite}, rest)
	h.mgrs[server].CleanupAfterPartitionChange(rest)
	awaitSiteFailed(t, done, "the server's §5.6 cleanup dropped the reader's site")
}
