package fs_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// forWriterRegimes runs body under the paper's protocol and under the
// default, whose read delegations a writer's open revokes: under both
// only a lost close strands a writer registration.
func forWriterRegimes(t *testing.T, body func(t *testing.T, ft fs.Features)) {
	for _, r := range []struct {
		name string
		ft   fs.Features
	}{{"paper", fs.Features{NoDelegations: true}}, {"leases", fs.Features{}}} {
		t.Run(r.name, func(t *testing.T) { body(t, r.ft) })
	}
}

// loseLink runs run while the network loses every message sent from
// site from to site to.
func loseLink(c *cluster.Cluster, from, to fs.SiteID, run func()) {
	c.Net.SetObserver(func(p netsim.Point) netsim.FaultAction {
		if p.Kind == netsim.PointRequest && p.From == from && p.To == to {
			return netsim.FaultDropRequest
		}
		return netsim.FaultNone
	})
	defer c.Net.SetObserver(nil)
	run()
}

// TestStrandedWriterLockReclaimedOnOpen is the regression test for the
// lock leak the chaos harness found: a close whose mSSClose message is
// lost to the network (with no partition change, so §5.6 cleanup never
// runs) used to strand the CSS writer record forever, refusing every
// later open for modification. The CSS must recall the recorded
// registration on refusal and reclaim the stale lock.
func TestStrandedWriterLockReclaimedOnOpen(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c := featureCluster(t, 3, ft)
		writeFile(t, c.K(1), "/f", []byte("v1"))
		settle(t, c)

		// Site 3 opens for modify; its copy is current, so it serves
		// itself (SS = 3). CSS for the root filegroup is site 1.
		w, err := c.K(3).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if w.SS() != 3 {
			t.Fatalf("SS = %d, want 3 (self-serve)", w.SS())
		}

		// Every message from 3 to the CSS is lost: handleClose's mSSClose
		// exhausts its retries, the error is swallowed (the US cannot act
		// on it), and the CSS writer record is stranded.
		loseLink(c, 3, 1, func() { err = w.Close() })
		if err != nil {
			t.Fatalf("close with lost mSSClose: %v", err)
		}
		if got := c.K(1).CSSWriter(w.ID()); got != 3 {
			t.Fatalf("CSS writer record = site %d after the lost close, want 3 (stranded)", got)
		}

		// A later open for modification from another site must reclaim
		// the stale lock (recall site 3's registration, find it gone)
		// instead of refusing with ErrBusy forever.
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
		if findings := c.Fsck(true); len(findings) != 0 {
			t.Fatalf("fsck after reclaim: %v", findings)
		}
	})
}

// onlyAtSite3 builds a three-site layout whose writers go through a
// remote storage site: /f stored at site 3 only (CSS = 1), on a
// cluster booted with ft.
func onlyAtSite3(t *testing.T, ft fs.Features) (*cluster.Cluster, storage.FileID) {
	t.Helper()
	c := featureCluster(t, 3, ft)
	writeFile(t, c.K(1), "/f", []byte("v1"))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	return c, r.ID
}

// TestStrandedWriterLockReclaimedBySameSite covers a site reclaiming its
// own stale lock: the recall names the stranded registration's serial,
// so the new open's own in-flight registration from the same site does
// not count as evidence that the old one is still alive.
func TestStrandedWriterLockReclaimedBySameSite(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c, _ := onlyAtSite3(t, ft)

		// US = 2, SS = 3 (only copy), CSS = 1.
		w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if w.SS() != 3 {
			t.Fatalf("SS = %d, want 3", w.SS())
		}

		// The close itself is lost on the wire: both the SS serving state
		// and the CSS writer record are stranded, and the US sees a
		// timeout.
		loseLink(c, 2, 3, func() { err = w.Close() })
		if !errors.Is(err, netsim.ErrTimeout) {
			t.Fatalf("close over dead link: %v, want ErrTimeout", err)
		}
		if css, ss := c.K(1).CSSWriter(w.ID()), c.K(3).ServingWriter(w.ID()); css != 2 || ss != 2 {
			t.Fatalf("writer records after the lost close: CSS site %d, SS site %d; want 2 and 2 (stranded)", css, ss)
		}

		// The same site reopens: the CSS recalls the stranded
		// registration at site 2 itself, the reopen's in-flight serial is
		// another registration, and the stale lock is reclaimed and the
		// SS serving state revoked.
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
		if findings := c.Fsck(true); len(findings) != 0 {
			t.Fatalf("fsck after reclaim: %v", findings)
		}
	})
}

// TestStorageSiteRefusesLiveWriter covers the storage site's own check
// (setupServe) when it must refuse. The CSS restarts while site 2
// writes through SS 3, so its rebuilt lock table records no writer but
// the SS still serves one. A modify open through that SS recalls the
// registration the SS records; its handle is live, so the open fails
// busy and the writer is untouched.
func TestStorageSiteRefusesLiveWriter(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c, id := onlyAtSite3(t, ft)
		w, err := c.K(2).OpenID(id, fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if w.SS() != 3 {
			t.Fatalf("SS = %d, want 3", w.SS())
		}
		c.Net.Crash(1)
		c.Restart(1)
		if css, ss := c.K(1).CSSWriter(id), c.K(3).ServingWriter(id); css != vclock.NoSite || ss != 2 {
			t.Fatalf("after the CSS restart: CSS writer site %d, SS writer site %d; want none and 2", css, ss)
		}

		// Site 3 stores the only copy, so the CSS lets it serve itself and
		// the check runs in site 3's own setupServe.
		if _, err := c.K(3).OpenID(id, fs.ModeModify); !errors.Is(err, fs.ErrBusy) {
			t.Fatalf("modify open through an SS serving a live writer: %v, want ErrBusy", err)
		}
		if got := c.K(3).ServingWriter(id); got != 2 {
			t.Fatalf("SS writer site %d after the refused open, want 2", got)
		}

		if err := w.WriteAll([]byte("v2")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatalf("live writer's close after the refusal: %v", err)
		}
		settle(t, c)
		if got := readFile(t, c.K(1), "/f"); string(got) != "v2" {
			t.Fatalf("read %q, want the live writer's v2", got)
		}
		if findings := c.Fsck(true); len(findings) != 0 {
			t.Fatalf("fsck: %v", findings)
		}
	})
}

// TestStorageSiteReclaimsAfterLostRevoke covers the storage site's own
// check when it reclaims. A writer at site 2 loses its link to SS 3
// with an uncommitted page written there; the next modify open recalls
// the registration at the CSS, and the revoke the CSS then sends the SS
// is lost too. The same open's poll of the SS finds the serving state,
// recalls the registration itself and reclaims it, freeing the shadow
// page.
func TestStorageSiteReclaimsAfterLostRevoke(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c, id := onlyAtSite3(t, ft)
		w, err := c.K(2).OpenID(id, fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(bytes.Repeat([]byte{'x'}, storage.PageSize), 0); err != nil {
			t.Fatal(err)
		}
		loseLink(c, 2, 3, func() { err = w.Close() })
		if err == nil {
			t.Fatal("close over a dead link to the SS succeeded")
		}
		if got := c.K(3).ServingWriter(id); got != 2 {
			t.Fatalf("SS writer site %d after the lost close, want 2 (stranded)", got)
		}

		// Every transmission of the CSS's fs.revokeserve to SS 3 is lost.
		const transmissions = 8
		before := c.Net.Stats()
		var g *fs.File
		fs.Cut{At: fs.NthRequest(1, 3, "fs.revokeserve", 1), Drop: transmissions}.Run(c.Net, func() { g, err = c.K(1).OpenID(id, fs.ModeModify) })
		d := c.Net.Stats().Sub(before)
		if err != nil {
			t.Fatalf("modify open after the lost revoke: %v", err)
		}
		if d.MsgsDropped != transmissions {
			t.Fatalf("%d messages dropped, want all %d transmissions of the revoke", d.MsgsDropped, transmissions)
		}
		if got := c.K(3).ServingWriter(id); got != 1 {
			t.Fatalf("SS writer site %d, want the new writer 1", got)
		}

		if err := g.WriteAll([]byte("v2")); err != nil {
			t.Fatal(err)
		}
		if err := g.Close(); err != nil {
			t.Fatal(err)
		}
		settle(t, c)
		if got := readFile(t, c.K(2), "/f"); string(got) != "v2" {
			t.Fatalf("read %q, want v2", got)
		}
		if findings := c.Fsck(true); len(findings) != 0 {
			t.Fatalf("fsck (a leaked shadow page shows as page-leak): %v", findings)
		}
	})
}
