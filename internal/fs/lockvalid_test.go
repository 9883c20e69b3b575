package fs_test

import (
	"errors"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
)

// TestStrandedWriterLockReclaimedOnOpen is the regression test for the
// lock leak the chaos harness found: a close whose mSSClose message is
// lost to the network (with no partition change, so §5.6 cleanup never
// runs) used to strand the CSS writer record forever, refusing every
// later open for modification. The CSS must validate the recorded
// holder on refusal and reclaim the stale lock.
func TestStrandedWriterLockReclaimedOnOpen(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("v1"))
	settle(t, c)

	// Site 3 opens for modify; its copy is current, so it serves itself
	// (SS = 3). CSS for the root filegroup is site 1.
	w, err := c.K(3).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if w.SS() != 3 {
		t.Fatalf("SS = %d, want 3 (self-serve)", w.SS())
	}

	// Every message from 3 to the CSS is lost: handleClose's mSSClose
	// exhausts its retries, the error is swallowed (the US cannot act on
	// it), and the CSS writer record is stranded.
	c.Net.EnableFaults(netsim.FaultConfig{
		Seed:  1,
		Links: map[[2]fs.SiteID]netsim.FaultRates{{3, 1}: {Drop: 1}},
	})
	if err := w.Close(); err != nil {
		t.Fatalf("close with lost mSSClose: %v", err)
	}
	c.Net.DisableFaults()

	// A later open for modification from another site must reclaim the
	// stale lock (probe site 3, find no live handle) instead of
	// refusing with ErrBusy forever.
	g, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatalf("open after stranded lock: %v", err)
	}
	if err := g.WriteAll([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if got := readFile(t, c.K(1), "/f"); string(got) != "v2" {
		t.Fatalf("after reclaim read %q, want v2", got)
	}
}

// TestStrandedWriterLockReclaimedBySameSite covers the self-probe path:
// the site whose own close was lost must be able to reclaim its own
// stale lock — its new open's in-flight record must not count as
// evidence that the old handle is still alive.
func TestStrandedWriterLockReclaimedBySameSite(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("v1"))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	// US = 2, SS = 3 (only copy), CSS = 1.
	w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if w.SS() != 3 {
		t.Fatalf("SS = %d, want 3", w.SS())
	}

	// The close itself is lost on the wire: the US sees a timeout, and
	// both the SS serving state and the CSS writer record are stranded.
	c.Net.EnableFaults(netsim.FaultConfig{
		Seed:  1,
		Links: map[[2]fs.SiteID]netsim.FaultRates{{2, 3}: {Drop: 1}},
	})
	if err := w.Close(); !errors.Is(err, netsim.ErrTimeout) {
		t.Fatalf("close over dead link: %v, want ErrTimeout", err)
	}
	c.Net.DisableFaults()

	// The same site reopens: the CSS probes the recorded holder (site 2
	// itself); the probing open's own in-flight record is excluded, the
	// stale lock is reclaimed and the SS serving state revoked.
	g, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatalf("reopen after lost close: %v", err)
	}
	if err := g.WriteAll([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if got := readFile(t, c.K(2), "/f"); string(got) != "v2" {
		t.Fatalf("after reclaim read %q, want v2", got)
	}
}
