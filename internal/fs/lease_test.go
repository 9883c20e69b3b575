package fs_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// leaseCluster builds the standard 4-site delegation fixture: /pin
// stored at sites 3 and 4 (CSS = 1, site 2 a pure using site).
func leaseCluster(t *testing.T) (*cluster.Cluster, storage.FileID) {
	t.Helper()
	c := newCluster(t, 4)
	writeFile(t, c.K(3), "/pin", bytes.Repeat([]byte{'p'}, storage.PageSize))
	if err := c.K(3).SetReplication(cred(), "/pin", []fs.SiteID{3, 4}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
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

	// Heal: restart the crashed site and merge it in (the §5.6 cleanup
	// runs everywhere), settle propagation.
	if _, err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	if got := readFile(t, c.K(2), "/pin"); !bytes.Equal(got, bytes.Repeat([]byte{'n'}, storage.PageSize)) {
		t.Fatalf("post-heal read at the crashed site did not see the writer's commit")
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after holder crash: %v", findings)
	}
}

// TestPartitionMergeDiscardsLeases pins the conservative merge rule:
// a partition change discards every delegation and delegate record on both
// sides (CleanupReport.LeasesReclaimed counts them), each site its own
// with no message, and the holder's next open renegotiates from the lock
// table instead of serving a possibly stale snapshot.
func TestPartitionMergeDiscardsLeases(t *testing.T) {
	c, id := leaseCluster(t)

	// Delegations at sites 2 and 4.
	openClose(t, c.K(2), id, fs.ModeRead)
	openClose(t, c.K(4), id, fs.ModeRead)
	if got := c.K(1).Delegates()[id]; len(got) != 2 {
		t.Fatalf("CSS records delegates %v, want sites 2 and 4", got)
	}
	noLeases := func(when string) {
		t.Helper()
		for _, s := range c.Sites() {
			if n := len(c.K(s).Delegations()); n != 0 {
				t.Fatalf("site %d still holds %d delegation(s) %s", s, n, when)
			}
			if n := len(c.K(s).Delegates()); n != 0 {
				t.Fatalf("site %d still records %d delegate file(s) %s", s, n, when)
			}
		}
	}

	// Partition site 2 away. Each holder's own cleanup reclaims its
	// delegation, the CSS's its delegate records.
	c.Partition([]fs.SiteID{1, 3, 4}, []fs.SiteID{2})
	noLeases("after partition cleanup")

	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	noLeases("after the merge")

	// The first modify open after the merge finds no delegate to revoke.
	before := c.Net.Stats()
	w, err := c.K(3).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Net.Stats().Sub(before).ByMethod["fs.leaserevoke"]; n != 0 {
		t.Fatalf("the first modify open after the merge sent %d fs.leaserevoke messages, want 0", n)
	}
	if _, err := w.WriteAt(bytes.Repeat([]byte{'z'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if got := readFile(t, c.K(2), "/pin"); !bytes.Equal(got, bytes.Repeat([]byte{'z'}, storage.PageSize)) {
		t.Fatalf("post-merge read at the formerly partitioned holder did not see the new version")
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after merge: %v", findings)
	}
}

// TestPartitionChangeUnderOpenLeasedWriter: site 2 holds a read
// delegation on a file and opens it for modification, which gives the
// delegation up, and a partition change arrives while the handle is open.
// Cleanup must not release the live writer's records, and the handle's
// own close runs the full close protocol and leaves no writer record at
// the CSS and no serving state at the SS.
func TestPartitionChangeUnderOpenLeasedWriter(t *testing.T) {
	c, id := leaseCluster(t)
	openClose(t, c.K(2), id, fs.ModeRead)
	if _, held := c.K(2).Delegations()[id]; !held {
		t.Fatal("site 2 holds no read delegation")
	}
	w, err := c.K(2).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, held := c.K(2).Delegations()[id]; held {
		t.Fatal("site 2 still holds its read delegation with a writer open")
	}
	if n := len(c.K(1).Delegates()); n != 0 {
		t.Fatalf("CSS still records %d delegate file(s) with a writer open", n)
	}
	ss := w.SS()

	// Site 4 leaves; the writer, its SS (3) and the CSS stay together.
	if ss != 3 {
		t.Fatalf("writer's SS = %d, want 3", ss)
	}
	c.Partition([]fs.SiteID{1, 2, 3}, []fs.SiteID{4})
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
		t.Errorf("close after the partition change sent fs.close %d, fs.ssclose %d messages; want the full close (2, 2)",
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
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
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
	// No membership call: the crash's cleanup at the CSS would drop the
	// delegation record this test needs it to keep.
	c.Net.Crash(2)
	c.Net.Restart(2)
	c.K(2).SetPartition(c.Sites())

	// The writer at site 3 recalls site 2's delegation, which is gone.
	openClose(t, c.K(3), id, fs.ModeModify)

	// The next read open at site 2 is granted a delegation and declines
	// it: the handle is an ordinary read handle.
	openClose(t, c.K(2), id, fs.ModeRead)
	if _, held := c.K(2).Delegations()[id]; held {
		t.Fatal("site 2 accepted the first grant after a revoke that found no delegation")
	}
	// The one after that is accepted.
	openClose(t, c.K(2), id, fs.ModeRead)
	if _, held := c.K(2).Delegations()[id]; !held {
		t.Fatal("site 2 declined the second grant too; the mark must decline exactly one")
	}
}

// TestFsckFlagsStrandedLease guards the fsck check itself: a delegation held
// at a using site with no matching CSS record is the dangerous
// direction (the holder would serve stale reads unsupervised), and the
// deep check must report it.
func TestFsckFlagsStrandedLease(t *testing.T) {
	c, id := leaseCluster(t)

	openClose(t, c.K(2), id, fs.ModeRead)

	// Strand it: wipe the CSS record from behind the holder's back (the
	// damage a lost cleanup or a buggy merge would leave), by a partition
	// change the holder never observes.
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
		t.Fatalf("fsck did not flag the stranded delegation at site 2: %v", findings)
	}
}

// TestRevokeRoundsUnderConcurrentReopens: sites 2–4 re-open and read /pin
// (stored at site 1, the CSS, alone) under read delegations while site 1
// commits new versions of it, each a page of its version number. Every
// read must find a version no older than the last commit that finished
// before its open began: a writer's open revokes every delegation before
// the writer proceeds, and no delegation is granted while it holds the
// file. Every revoke round must end, or the writer's open hangs; and the
// run must revoke some: the writer starts once every reader has read
// once, under a delegation its first open was granted.
func TestRevokeRoundsUnderConcurrentReopens(t *testing.T) {
	const commits = 20
	c := newCluster(t, 4)
	page := func(v uint64) []byte {
		return bytes.Repeat(binary.BigEndian.AppendUint64(nil, v), storage.PageSize/8)
	}
	writeFile(t, c.K(1), "/pin", page(0))
	if err := c.K(1).SetReplication(cred(), "/pin", []fs.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	id := func() storage.FileID {
		r, err := c.K(1).Resolve(cred(), "/pin")
		if err != nil {
			t.Fatal(err)
		}
		return r.ID
	}()
	before := c.Net.Stats()

	var done atomic.Uint64 // the last version whose commit has finished
	var stop atomic.Bool
	errs := make(chan error, 8)
	var wg, started sync.WaitGroup
	for s := fs.SiteID(2); s <= 4; s++ {
		wg.Add(1)
		started.Add(1)
		go func(k *fs.Kernel) {
			defer wg.Done()
			read := sync.OnceFunc(started.Done)
			defer read()
			for first := true; first || !stop.Load(); first = false {
				floor := done.Load()
				f, err := k.OpenID(id, fs.ModeRead)
				if err != nil {
					errs <- fmt.Errorf("site %d open: %w", k.Site(), err)
					return
				}
				data, err := f.ReadAll()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil || len(data) < 8 {
					errs <- fmt.Errorf("site %d read %d bytes: %v", k.Site(), len(data), err)
					return
				}
				if v := binary.BigEndian.Uint64(data); v < floor {
					errs <- fmt.Errorf("site %d read version %d, opened after version %d was committed", k.Site(), v, floor)
					return
				}
				read()
			}
		}(c.K(s))
	}
	started.Wait()
	for v := uint64(1); v <= commits; v++ {
		w, err := c.K(1).OpenID(id, fs.ModeModify)
		if err != nil {
			t.Errorf("writer open %d: %v", v, err)
			break
		}
		if err := w.WriteAll(page(v)); err != nil {
			t.Errorf("write %d: %v", v, err)
		}
		if err := w.Close(); err != nil {
			t.Errorf("commit %d: %v", v, err)
		}
		done.Store(v)
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if d := c.Net.Stats().Sub(before); d.BatchedRevokes == 0 {
		t.Errorf("%d commits made no revoke round (%d delegations granted)", commits, d.LeasesGranted)
	}
}
