package txn_test

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/txn"
)

func cred() *fs.Cred { return fs.DefaultCred("tester") }

func seed(t *testing.T, k *fs.Kernel, path, data string) {
	t.Helper()
	f, err := k.Create(cred(), path, storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, k *fs.Kernel, path string) string {
	t.Helper()
	f, err := k.Open(cred(), path, fs.ModeRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close() //nolint:errcheck
	b, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCommitMakesAllChangesVisible(t *testing.T) {
	c := cluster.Simple(2)
	defer c.Close()
	seed(t, c.K(1), "/a", "a0")
	seed(t, c.K(1), "/b", "b0")
	c.Settle()

	m := c.Site(1).Txn
	tx := m.Begin(cred())
	if err := tx.WriteFile("/a", []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.WriteFile("/b", []byte("b1")); err != nil {
		t.Fatal(err)
	}
	// Outside the transaction nothing is visible yet.
	if got := read(t, c.K(2), "/a"); got != "a0" {
		t.Fatalf("uncommitted change visible: %q", got)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if read(t, c.K(2), "/a") != "a1" || read(t, c.K(2), "/b") != "b1" {
		t.Fatal("committed changes not visible")
	}
	if m.ActiveCount() != 0 {
		t.Fatal("transaction leaked")
	}
}

func TestAbortUndoesEverything(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/a", "orig")

	m := c.Site(1).Txn
	tx := m.Begin(cred())
	if err := tx.WriteFile("/a", []byte("scribble")); err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateFile("/new", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, c.K(1), "/a"); got != "orig" {
		t.Fatalf("abort left %q", got)
	}
	if _, err := c.K(1).Stat(cred(), "/new"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("created file survived abort: %v", err)
	}
}

func TestNestedCommitIntoParentThenParentAbort(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/f", "base")

	m := c.Site(1).Txn
	parent := m.Begin(cred())
	sub, err := parent.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WriteFile("/f", []byte("sub-change")); err != nil {
		t.Fatal(err)
	}
	if err := sub.Commit(); err != nil {
		t.Fatal(err)
	}
	// The subtransaction's change is visible in the parent...
	v, err := parent.ReadFile("/f")
	if err != nil || string(v) != "sub-change" {
		t.Fatalf("parent view %q, %v", v, err)
	}
	// ...but the parent can still abort it all.
	if err := parent.Abort(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, c.K(1), "/f"); got != "base" {
		t.Fatalf("parent abort left %q", got)
	}
}

func TestNestedAbortKeepsParentView(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/f", "base")

	m := c.Site(1).Txn
	parent := m.Begin(cred())
	if err := parent.WriteFile("/f", []byte("parent-change")); err != nil {
		t.Fatal(err)
	}
	sub, err := parent.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WriteFile("/f", []byte("sub-change")); err != nil {
		t.Fatal(err)
	}
	if err := sub.Abort(); err != nil {
		t.Fatal(err)
	}
	v, err := parent.ReadFile("/f")
	if err != nil || string(v) != "parent-change" {
		t.Fatalf("parent view after sub abort: %q, %v", v, err)
	}
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := read(t, c.K(1), "/f"); got != "parent-change" {
		t.Fatalf("final content %q", got)
	}
}

func TestDeepNesting(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/f", "0")

	m := c.Site(1).Txn
	t0 := m.Begin(cred())
	t1, _ := t0.Begin()
	t2, _ := t1.Begin()
	t3, _ := t2.Begin()
	if err := t3.WriteFile("/f", []byte("deep")); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*txn.Txn{t3, t2, t1, t0} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if got := read(t, c.K(1), "/f"); got != "deep" {
		t.Fatalf("content %q", got)
	}
}

func TestCommitWithActiveChildRefused(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	m := c.Site(1).Txn
	parent := m.Begin(cred())
	sub, _ := parent.Begin()
	if err := parent.Commit(); !errors.Is(err, txn.ErrChildActive) {
		t.Fatalf("err = %v, want ErrChildActive", err)
	}
	if err := sub.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Commit(); !errors.Is(err, txn.ErrDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestTransactionIsolationViaLocks(t *testing.T) {
	c := cluster.Simple(2)
	defer c.Close()
	seed(t, c.K(1), "/f", "base")
	c.Settle()

	m1 := c.Site(1).Txn
	m2 := c.Site(2).Txn
	t1 := m1.Begin(cred())
	if err := t1.WriteFile("/f", []byte("t1")); err != nil {
		t.Fatal(err)
	}
	// A concurrent transaction at another site cannot touch the file.
	t2 := m2.Begin(cred())
	if err := t2.WriteFile("/f", []byte("t2")); !errors.Is(err, txn.ErrConflictLock) {
		t.Fatalf("err = %v, want ErrConflictLock", err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// After t1 releases, t2 can proceed.
	if err := t2.WriteFile("/f", []byte("t2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if got := read(t, c.K(1), "/f"); got != "t2" {
		t.Fatalf("content %q", got)
	}
}

func TestPartitionAbortsTransactionsTouchingLostSites(t *testing.T) {
	// §5.6 cleanup table, "Distributed Transaction" row.
	c := cluster.Simple(3)
	defer c.Close()
	seed(t, c.K(1), "/remote-only", "base")
	if err := c.K(1).SetReplication(cred(), "/remote-only", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	m2 := c.Site(2).Txn
	tx := m2.Begin(cred())
	if err := tx.WriteFile("/remote-only", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Site 3 — the storage site — leaves the partition.
	before := c.Net.Stats()
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
	if n := c.Net.Stats().Sub(before).TxnPartitionAborts; n != 1 {
		t.Fatalf("partition aborted %d transactions, want 1", n)
	}
	if tx.State() != txn.Aborted {
		t.Fatalf("state = %v, want Aborted", tx.State())
	}
	if err := tx.Commit(); !errors.Is(err, txn.ErrDone) {
		t.Fatalf("commit of aborted txn: %v", err)
	}
	// The doomed update never became visible.
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	if got := read(t, c.K(3), "/remote-only"); got != "base" {
		t.Fatalf("content %q, want base", got)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	c := cluster.Simple(1)
	defer c.Close()
	seed(t, c.K(1), "/f", "v0")
	m := c.Site(1).Txn
	tx := m.Begin(cred())
	if err := tx.AppendFile("/f", []byte("+v1")); err != nil {
		t.Fatal(err)
	}
	v, err := tx.ReadFile("/f")
	if err != nil || string(v) != "v0+v1" {
		t.Fatalf("view %q, %v", v, err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
}
