package txn_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/txn"
)

func TestConcurrentTransactionsDisjointFiles(t *testing.T) {
	c := cluster.Simple(3)
	defer c.Close()
	for i := 0; i < 9; i++ {
		seed(t, c.K(1), fmt.Sprintf("/t%d", i), "0")
	}
	c.Settle()
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := c.Site(fs.SiteID(1 + i%3)).Txn
			tx := m.Begin(cred())
			if err := tx.WriteFile(fmt.Sprintf("/t%d", i), []byte("done")); err != nil {
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	c.Settle()
	for i := 0; i < 9; i++ {
		if got := read(t, c.K(2), fmt.Sprintf("/t%d", i)); got != "done" {
			t.Errorf("t%d = %q", i, got)
		}
	}
}

func TestSiblingSubtransactions(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/ledger", "")
	m := c.Site(1).Txn
	root := m.Begin(cred())
	// Three sibling subtransactions, sequentially (siblings may not
	// run concurrently against the same file in this model).
	for i := 0; i < 3; i++ {
		sub, err := root.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := sub.AppendFile("/ledger", []byte(fmt.Sprintf("entry %d\n", i))); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			// The middle one aborts; its entry must vanish.
			if err := sub.Abort(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := sub.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Commit(); err != nil {
		t.Fatal(err)
	}
	got := read(t, c.K(1), "/ledger")
	if got != "entry 0\nentry 2\n" {
		t.Fatalf("ledger = %q", got)
	}
}

func TestTxnCreateVisibleOnlyAfterTopCommit(t *testing.T) {
	c := cluster.Simple(2)
	defer c.Close()
	m := c.Site(1).Txn
	tx := m.Begin(cred())
	if err := tx.CreateFile("/staged", []byte("data")); err != nil {
		t.Fatal(err)
	}
	c.Settle() // propagate the name; the content stays uncommitted
	// The file exists in the catalog (created via the normal create
	// path) but its content commits with the transaction; concurrent
	// writers are excluded by the held lock.
	if _, err := c.K(2).Open(cred(), "/staged", fs.ModeModify); !errors.Is(err, fs.ErrBusy) {
		t.Fatalf("concurrent modify open: %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if got := read(t, c.K(2), "/staged"); got != "data" {
		t.Fatalf("staged = %q", got)
	}
}

func TestAbortOfDeepSubtreeViaParent(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/f", "base")
	m := c.Site(1).Txn
	t0 := m.Begin(cred())
	t1, _ := t0.Begin()
	t2, _ := t1.Begin()
	if err := t2.WriteFile("/f", []byte("deep change")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// Everything committed up to t0; t0 aborts the lot.
	if err := t0.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, c.K(1), "/f"); got != "base" {
		t.Fatalf("f = %q", got)
	}
	if m.ActiveCount() != 0 {
		t.Fatal("leaked transaction")
	}
}

func TestBeginOnCompletedTxnFails(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	m := c.Site(1).Txn
	tx := m.Begin(cred())
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Begin(); !errors.Is(err, txn.ErrDone) {
		t.Fatalf("err = %v", err)
	}
}

func TestLockHeldAcrossSubtransactions(t *testing.T) {
	// The file lock acquired by a subtransaction belongs to the tree:
	// after the sub commits, a competing external writer still cannot
	// open the file until the top level finishes.
	c := cluster.Simple(2)
	defer c.Close()
	seed(t, c.K(1), "/f", "x")
	c.Settle()
	m := c.Site(1).Txn
	root := m.Begin(cred())
	sub, _ := root.Begin()
	if err := sub.WriteFile("/f", []byte("sub")); err != nil {
		t.Fatal(err)
	}
	if err := sub.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.K(2).Open(cred(), "/f", fs.ModeModify); !errors.Is(err, fs.ErrBusy) {
		t.Fatalf("external writer during txn: %v", err)
	}
	if err := root.Commit(); err != nil {
		t.Fatal(err)
	}
	f, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatalf("after commit: %v", err)
	}
	f.Close() //nolint:errcheck
}

func TestPartitionCleanupLeavesUnrelatedTxns(t *testing.T) {
	c := cluster.Simple(3)
	defer c.Close()
	seed(t, c.K(1), "/local", "a")
	seed(t, c.K(1), "/remote", "b")
	if err := c.K(1).SetReplication(cred(), "/local", []fs.SiteID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.K(1).SetReplication(cred(), "/remote", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	m := c.Site(1).Txn
	safe := m.Begin(cred())
	if err := safe.WriteFile("/local", []byte("safe")); err != nil {
		t.Fatal(err)
	}
	doomed := m.Begin(cred())
	if err := doomed.WriteFile("/remote", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	before := c.Net.Stats()
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
	if n := c.Net.Stats().Sub(before).TxnPartitionAborts; n != 1 {
		t.Fatalf("partition aborted %d, want 1", n)
	}
	if safe.State() != txn.Active || doomed.State() != txn.Aborted {
		t.Fatalf("safe=%v doomed=%v", safe.State(), doomed.State())
	}
	if err := safe.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, c.K(2), "/local"); got != "safe" {
		t.Fatalf("local = %q", got)
	}
}
