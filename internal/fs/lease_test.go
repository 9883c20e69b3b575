package fs_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// leaseCluster builds the standard 4-site lease fixture: /pin stored at
// sites 3 and 4 (CSS = 1, site 2 a pure using site), leases enabled
// everywhere after the setup writes so no setup lease lingers.
func leaseCluster(t *testing.T) (*cluster.Cluster, storage.FileID) {
	t.Helper()
	c := newCluster(t, 4)
	writeFile(t, c.K(3), "/pin", bytes.Repeat([]byte{'p'}, storage.PageSize))
	if err := c.K(3).SetReplication(cred(), "/pin", []fs.SiteID{3, 4}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	c.SetFeatures(fs.Features{Leases: true})
	r, err := c.K(2).Resolve(cred(), "/pin")
	if err != nil {
		t.Fatal(err)
	}
	return c, r.ID
}

func openClose(t *testing.T, k *fs.Kernel, id storage.FileID, mode fs.OpenMode) {
	t.Helper()
	f, err := k.OpenID(id, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseHolderCrashDuringRevoke crashes a delegation holder right
// before the batched revoke round must recall it: the revoke to the
// dead site is dropped without an answer, the writer proceeds, and the
// post-heal cluster converges with no stranded lease records — the
// crash wiped the holder's volatile lease table, and the CSS dropped
// its delegate records as part of the revoke round.
func TestLeaseHolderCrashDuringRevoke(t *testing.T) {
	c, id := leaseCluster(t)

	// Delegations at sites 2 and 4.
	openClose(t, c.K(2), id, fs.ModeRead)
	openClose(t, c.K(4), id, fs.ModeRead)
	if got := len(c.K(1).Delegates()[id]); got != 2 {
		t.Fatalf("CSS records %d delegates, want 2", got)
	}

	// Site 2 dies holding its delegation; the writer's revoke round
	// finds it unreachable and proceeds without an answer.
	c.Net.Crash(2)
	w, err := c.K(3).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatalf("modify open with a crashed delegate: %v", err)
	}
	if _, err := w.WriteAt(bytes.Repeat([]byte{'n'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.K(1).Delegates()[id]); got != 0 {
		t.Fatalf("CSS still records %d delegates after the revoke round", got)
	}

	// Heal: restart the crashed site, run the §5.6 cleanup everywhere,
	// settle propagation.
	c.Net.Restart(2)
	all := []fs.SiteID{1, 2, 3, 4}
	for _, s := range all {
		c.K(s).CleanupAfterPartitionChange(all)
	}
	settle(t, c)

	if got := readFile(t, c.K(2), "/pin"); !bytes.Equal(got, bytes.Repeat([]byte{'n'}, storage.PageSize)) {
		t.Fatalf("post-heal read at the crashed site did not see the writer's commit")
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after holder crash: %v", findings)
	}
}

// TestWriterLeaseUnreachableHolderRefusesThenCleanupReclaims pins the
// two halves of writer-lease failure handling: while the holder is
// merely unreachable (no topology change observed), the revoke gets no
// answer and the conflicting open must fail busy — we cannot tell a
// dead holder from a slow one; once the partition change is processed,
// the §5.6 cleanup reclaims the lease like any lock-table record and
// the open succeeds.
func TestWriterLeaseUnreachableHolderRefusesThenCleanupReclaims(t *testing.T) {
	c, id := leaseCluster(t)

	// Writer lease at site 2 (leased close keeps it).
	w, err := c.K(2).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(bytes.Repeat([]byte{'m'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if c.K(2).Leases()[id] != fs.ModeModify {
		t.Fatal("site 2 holds no writer lease after the leased close")
	}

	c.Net.Crash(2)
	// No cleanup has run yet: the holder is unreachable, the revoke is
	// unanswered, and unreachable counts as still holding.
	if _, err := c.K(4).OpenID(id, fs.ModeModify); !errors.Is(err, fs.ErrBusy) {
		t.Fatalf("modify open with unreachable lease holder: %v, want ErrBusy", err)
	}

	// The partition protocol observes the change: cleanup reclaims the
	// writer slot for the lost site and the open proceeds.
	for _, s := range []fs.SiteID{1, 3, 4} {
		c.K(s).CleanupAfterPartitionChange([]fs.SiteID{1, 3, 4})
	}
	w2, err := c.K(4).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatalf("modify open after cleanup: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// Heal. The restarted site lost its lease table with the rest of
	// its volatile state; nothing may be stranded.
	c.Net.Restart(2)
	all := []fs.SiteID{1, 2, 3, 4}
	for _, s := range all {
		c.K(s).CleanupAfterPartitionChange(all)
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after writer-holder crash: %v", findings)
	}
}

// TestPartitionMergeDiscardsLeases pins the conservative merge rule:
// a partition change discards every lease and delegate record on both
// sides (CleanupReport.LeasesReclaimed counts them), and the holder's
// next open renegotiates from the lock table instead of serving a
// possibly stale snapshot.
func TestPartitionMergeDiscardsLeases(t *testing.T) {
	c, id := leaseCluster(t)

	openClose(t, c.K(2), id, fs.ModeRead)
	if c.K(2).Leases()[id] != fs.ModeRead {
		t.Fatal("site 2 holds no read delegation")
	}

	// Partition site 2 away. Its own cleanup reclaims the held lease;
	// the CSS side discards the delegate record.
	c.Partition([]fs.SiteID{1, 3, 4}, []fs.SiteID{2})
	if n := len(c.K(2).Leases()); n != 0 {
		t.Fatalf("site 2 still holds %d lease(s) after partition cleanup", n)
	}
	if n := len(c.K(1).Delegates()); n != 0 {
		t.Fatalf("CSS still records %d delegate file(s) after partition cleanup", n)
	}

	// Majority side writes a new version while 2 is away.
	w, err := c.K(3).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(bytes.Repeat([]byte{'z'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	c.Heal()
	settle(t, c)
	if got := readFile(t, c.K(2), "/pin"); !bytes.Equal(got, bytes.Repeat([]byte{'z'}, storage.PageSize)) {
		t.Fatalf("post-merge read at the partitioned site did not see the new version")
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after merge: %v", findings)
	}
}

// TestPartitionChangeUnderOpenLeasedWriter: a partition change arrives
// while a handle is open under site 2's writer lease. Cleanup discards
// the lease but must not run its deferred close — the registration is
// live — so the handle's own close, finding no lease, runs the full
// close protocol and leaves no writer record at the CSS and no serving
// state at the SS.
func TestPartitionChangeUnderOpenLeasedWriter(t *testing.T) {
	c, id := leaseCluster(t)
	openClose(t, c.K(2), id, fs.ModeModify) // writer lease at site 2
	w, err := c.K(2).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	ss := w.SS()

	// Site 4 leaves; the writer, its SS (3) and the CSS stay together.
	if ss != 3 {
		t.Fatalf("writer's SS = %d, want 3", ss)
	}
	c.Partition([]fs.SiteID{1, 2, 3}, []fs.SiteID{4})
	if _, held := c.K(2).Leases()[id]; held {
		t.Fatal("site 2 still holds its writer lease after the partition change")
	}
	if c.K(1).CSSWriter(id) != 2 || c.K(ss).ServingWriter(id) != 2 {
		t.Fatal("cleanup released the live writer's records")
	}

	if _, err := w.WriteAt(bytes.Repeat([]byte{'w'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	before := c.Net.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d := c.Net.Stats().Sub(before); d.ByMethod["fs.close"] != 2 || d.ByMethod["fs.ssclose"] != 2 {
		t.Errorf("close after losing the lease sent fs.close %d, fs.ssclose %d messages; want the full close (2, 2)",
			d.ByMethod["fs.close"], d.ByMethod["fs.ssclose"])
	}
	if got := c.K(1).CSSWriter(id); got != vclock.NoSite {
		t.Errorf("CSS still records writer site %d after the close", got)
	}
	if got := c.K(ss).ServingWriter(id); got != vclock.NoSite {
		t.Errorf("SS %d still serves writer site %d after the close", ss, got)
	}

	// Site 4 missed the commit while away and catches up only at
	// reconciliation, which this test does not run: fsck without the
	// convergence checks.
	c.Heal()
	if got := readFile(t, c.K(4), "/pin"); !bytes.Equal(got, bytes.Repeat([]byte{'w'}, storage.PageSize)) {
		t.Fatal("post-heal read at site 4 did not see the writer's commit")
	}
	if findings := c.Fsck(false); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestRevokeOvertakingGrantDeclinesOnce pins the reorder mark: a
// delegation revoke that finds no delegation (it overtook the grant, or
// the holder lost its lease table) makes the holder decline the next
// grant for that file — once, and only once. Here site 2 restarts
// holding a delegation the CSS still records, and a writer's revoke
// round then finds it gone.
func TestRevokeOvertakingGrantDeclinesOnce(t *testing.T) {
	c, id := leaseCluster(t)
	openClose(t, c.K(2), id, fs.ModeRead)
	c.Net.Crash(2)
	c.Net.Restart(2)
	c.K(2).SetPartition(c.Sites())

	// The writer at site 3 recalls site 2's delegation, which is gone.
	openClose(t, c.K(3), id, fs.ModeModify)

	// The next read open at site 2 is granted a delegation and declines
	// it: the handle is an ordinary read handle.
	openClose(t, c.K(2), id, fs.ModeRead)
	if _, held := c.K(2).Leases()[id]; held {
		t.Fatal("site 2 accepted the first grant after a revoke that found no lease")
	}
	// The one after that is accepted.
	openClose(t, c.K(2), id, fs.ModeRead)
	if c.K(2).Leases()[id] != fs.ModeRead {
		t.Fatal("site 2 declined the second grant too; the mark must decline exactly one")
	}
}

// TestFsckFlagsStrandedLease guards the fsck check itself: a lease held
// at a using site with no matching CSS record is the dangerous
// direction (the holder would serve stale reads unsupervised), and the
// deep check must report it.
func TestFsckFlagsStrandedLease(t *testing.T) {
	c, id := leaseCluster(t)

	openClose(t, c.K(2), id, fs.ModeRead)

	// Strand it: wipe the CSS record from behind the holder's back (the
	// damage a lost cleanup or a buggy merge would leave).
	c.K(1).SetFeatures(fs.Features{})
	c.K(1).SetFeatures(fs.Features{Leases: true})
	// Switching leases off only drops the CSS's own held leases; force the
	// delegate record away via a partition change the holder never
	// observes.
	c.K(1).CleanupAfterPartitionChange([]fs.SiteID{1, 3, 4})
	c.Net.HealAll()

	findings := c.Fsck(false)
	found := false
	for _, f := range findings {
		if f.Kind == "stranded-lease" && f.Site == 2 && f.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck did not flag the stranded lease at site 2: %v", findings)
	}
}
