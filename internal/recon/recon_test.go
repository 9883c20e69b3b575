package recon_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/recon"
	"repro/internal/storage"
)

type harness struct {
	c *cluster.Cluster
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	c := cluster.Simple(n)
	t.Cleanup(c.Close)
	return &harness{c: c}
}

// r returns a site's reconciler.
func (h *harness) r(s fs.SiteID) *recon.Reconciler { return h.c.Site(s).Recon }

// merge runs the merge protocol and reconciliation (cluster.Merge).
func (h *harness) merge(t *testing.T) recon.Report {
	t.Helper()
	rep, err := h.c.Merge()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// mergeOnce runs the merge protocol and one reconciliation pass at
// every site (cluster.Merge runs two), settling before and after, for
// the tests that pin what a single pass reaches.
func (h *harness) mergeOnce(t *testing.T) recon.Report {
	t.Helper()
	if err := h.c.Heal(); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	var total recon.Report
	for _, s := range h.c.Sites() {
		rep, err := h.r(s).ReconcileAll()
		if err != nil {
			t.Fatalf("reconcile at site %d: %v", s, err)
		}
		total = total.Add(rep)
	}
	h.c.Settle()
	return total
}

func cred() *fs.Cred { return fs.DefaultCred("tester") }

func write(t *testing.T, k *fs.Kernel, path, data string) {
	t.Helper()
	f, err := k.Create(cred(), path, storage.TypeRegular, 0644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if err := f.WriteAll([]byte(data)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func update(t *testing.T, k *fs.Kernel, path, data string) {
	t.Helper()
	f, err := k.Open(cred(), path, fs.ModeModify)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
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
	data, err := f.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func names(ents []struct {
	Name string
}) []string {
	return nil
}

func dirNames(t *testing.T, k *fs.Kernel, path string) []string {
	t.Helper()
	ents, err := k.ReadDir(cred(), path)
	if err != nil {
		t.Fatalf("readdir %s: %v", path, err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name)
	}
	return out
}

func TestDirectoryMergeIndependentInserts(t *testing.T) {
	// Rule (a): entries created in different partitions both survive.
	h := newHarness(t, 2)
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	write(t, h.c.K(1), "/from1", "one")
	write(t, h.c.K(2), "/from2", "two")
	rep := h.merge(t)
	if rep.DirsMerged == 0 {
		t.Fatal("no directory merge performed")
	}
	for _, s := range h.c.Sites() {
		got := dirNames(t, h.c.K(s), "/")
		if !containsStr(got, "from1") || !containsStr(got, "from2") {
			t.Fatalf("site %d sees %v", s, got)
		}
	}
	// Both files are readable everywhere after propagation.
	if read(t, h.c.K(1), "/from2") != "two" || read(t, h.c.K(2), "/from1") != "one" {
		t.Fatal("cross-partition files not propagated")
	}
}

func TestDirectoryMergeDeletePropagates(t *testing.T) {
	// Rule (b): a delete done in one partition propagates at merge.
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/doomed", "bye")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	if err := h.c.K(1).Unlink(cred(), "/doomed"); err != nil {
		t.Fatal(err)
	}
	h.merge(t)
	for _, s := range h.c.Sites() {
		if _, err := h.c.K(s).Open(cred(), "/doomed", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
			t.Fatalf("site %d still resolves deleted file: %v", s, err)
		}
	}
}

func TestDirectoryMergeDeleteModifyRaceUndoesDelete(t *testing.T) {
	// Rule (d): "a file which was deleted in one partition while it was
	// modified in another, wants to be saved."
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/contested", "v1")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	if err := h.c.K(1).Unlink(cred(), "/contested"); err != nil {
		t.Fatal(err)
	}
	update(t, h.c.K(2), "/contested", "v2-modified")
	rep := h.merge(t)
	if rep.DeletesUndone == 0 {
		t.Fatal("delete/modify race not detected")
	}
	for _, s := range h.c.Sites() {
		if got := read(t, h.c.K(s), "/contested"); got != "v2-modified" {
			t.Fatalf("site %d reads %q, want the modified version", s, got)
		}
	}
	// The file's owner got notification mail.
	msgs, err := h.r(1).ReadMail("tester")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if strings.Contains(m.Body, "undone") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no undo notification in mail: %+v", msgs)
	}
}

func TestDirectoryMergeDeleteWinsWhenUnmodified(t *testing.T) {
	// Rule (d) complement: if the file was NOT modified since the
	// delete, the delete propagates.
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/stale", "v1")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	if err := h.c.K(1).Unlink(cred(), "/stale"); err != nil {
		t.Fatal(err)
	}
	// Partition 2 reads but does not modify.
	_ = read(t, h.c.K(2), "/stale")
	h.merge(t)
	for _, s := range h.c.Sites() {
		if _, err := h.c.K(s).Open(cred(), "/stale", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
			t.Fatalf("site %d: delete did not propagate: %v", s, err)
		}
	}
}

func TestDirectoryMergeNameConflictRenamesBoth(t *testing.T) {
	// §4.4 rule 1: same name, different files -> both renamed, owners
	// mailed.
	h := newHarness(t, 2)
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	write(t, h.c.K(1), "/clash", "from partition 1")
	write(t, h.c.K(2), "/clash", "from partition 2")
	rep := h.merge(t)
	if rep.NameConflicts == 0 {
		t.Fatal("name conflict not detected")
	}
	got := dirNames(t, h.c.K(1), "/")
	var renamed []string
	for _, n := range got {
		if strings.HasPrefix(n, "clash!i") {
			renamed = append(renamed, n)
		}
	}
	if len(renamed) != 2 {
		t.Fatalf("renamed entries = %v (all: %v)", renamed, got)
	}
	if containsStr(got, "clash") {
		t.Fatalf("original conflicted name survived: %v", got)
	}
	// Contents preserved under the new names.
	bodies := map[string]bool{}
	for _, n := range renamed {
		bodies[read(t, h.c.K(2), "/"+n)] = true
	}
	if !bodies["from partition 1"] || !bodies["from partition 2"] {
		t.Fatalf("contents lost in rename: %v", bodies)
	}
	// Owner notified.
	msgs, err := h.r(1).ReadMail("tester")
	if err != nil || len(msgs) == 0 {
		t.Fatalf("no conflict mail: %v %v", msgs, err)
	}
}

func TestUntypedConflictReportedAndBlocked(t *testing.T) {
	// §4.6: untyped files in conflict are marked (opens fail), owner
	// mailed.
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/data", "base")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	update(t, h.c.K(1), "/data", "one way")
	update(t, h.c.K(2), "/data", "other way")
	rep := h.merge(t)
	if rep.ConflictsReported != 1 {
		t.Fatalf("ConflictsReported = %d, want 1", rep.ConflictsReported)
	}
	if _, err := h.c.K(1).Open(cred(), "/data", fs.ModeRead); !errors.Is(err, fs.ErrConflict) {
		t.Fatalf("open conflicted file: %v, want ErrConflict", err)
	}
	msgs, err := h.r(1).ReadMail("tester")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range msgs {
		if strings.Contains(m.Body, "conflict") && m.From == "locus-recovery" {
			found = true
		}
	}
	if !found {
		t.Fatalf("owner not mailed: %+v", msgs)
	}
	// The conflict is listed by the tool.
	confs := h.r(1).ListConflicts()
	if len(confs) != 1 || len(confs[1-1].Copies) != 2 {
		t.Fatalf("ListConflicts = %+v", confs)
	}
}

func TestResolveKeep(t *testing.T) {
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/data", "base")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	update(t, h.c.K(1), "/data", "winner")
	update(t, h.c.K(2), "/data", "loser")
	h.merge(t)

	confs := h.r(1).ListConflicts()
	if len(confs) != 1 {
		t.Fatalf("conflicts = %+v", confs)
	}
	if err := h.r(1).ResolveKeep(confs[0].ID, 1); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	for _, s := range h.c.Sites() {
		if got := read(t, h.c.K(s), "/data"); got != "winner" {
			t.Fatalf("site %d reads %q", s, got)
		}
	}
	if len(h.r(1).ListConflicts()) != 0 {
		t.Fatal("conflict not cleared")
	}
}

func TestResolveSplit(t *testing.T) {
	h := newHarness(t, 2)
	write(t, h.c.K(1), "/data", "base")
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	update(t, h.c.K(1), "/data", "version A")
	update(t, h.c.K(2), "/data", "version B")
	h.merge(t)

	names, err := h.r(1).ResolveSplit(cred(), "/data")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("split names = %v", names)
	}
	h.c.Settle()
	bodies := map[string]bool{}
	for _, n := range names {
		bodies[read(t, h.c.K(2), n)] = true
	}
	if !bodies["version A"] || !bodies["version B"] {
		t.Fatalf("split contents = %v", bodies)
	}
	if _, err := h.c.K(1).Open(cred(), "/data", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("original should be gone: %v", err)
	}
}

func TestMailboxMergeUnionMinusDeletes(t *testing.T) {
	// §4.5 / E9: after merge the mailbox is the union of both
	// partitions' deliveries minus deletions, with no name conflicts.
	h := newHarness(t, 2)
	if err := h.r(1).DeliverMail("bob", "alice", "pre-partition"); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	pre, err := h.r(1).ReadMail("bob")
	if err != nil || len(pre) != 1 {
		t.Fatalf("pre mail: %v %v", pre, err)
	}
	preID := pre[0].ID

	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	if err := h.r(1).DeliverMail("bob", "carol", "from partition 1"); err != nil {
		t.Fatal(err)
	}
	if err := h.r(2).DeliverMail("bob", "dave", "from partition 2"); err != nil {
		t.Fatal(err)
	}
	// Partition 2 also deletes the pre-partition message.
	if err := h.r(2).DeleteMail("bob", preID); err != nil {
		t.Fatal(err)
	}
	rep := h.merge(t)
	if rep.MailboxesMerged == 0 {
		t.Fatal("mailbox not merged")
	}
	for _, s := range h.c.Sites() {
		msgs, err := h.r(s).ReadMail("bob")
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 2 {
			t.Fatalf("site %d mailbox = %+v, want 2 messages", s, msgs)
		}
		var froms []string
		for _, m := range msgs {
			froms = append(froms, m.From)
		}
		if !containsStr(froms, "carol") || !containsStr(froms, "dave") || containsStr(froms, "alice") {
			t.Fatalf("site %d mailbox froms = %v", s, froms)
		}
	}
}

func TestDatabaseMergeManager(t *testing.T) {
	// §4.3: database-typed conflicts go to a registered recovery/merge
	// manager instead of the owner.
	h := newHarness(t, 2)
	f, err := h.c.K(1).Create(cred(), "/db", storage.TypeDatabase, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("a=1\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	h.c.Settle()
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	update(t, h.c.K(1), "/db", "a=1\nb=2\n")
	update(t, h.c.K(2), "/db", "a=1\nc=3\n")

	// A line-union merge manager at every site.
	mgr := func(id storage.FileID, copies []recon.Copy) ([]byte, error) {
		seen := map[string]bool{}
		var out []string
		for _, c := range copies {
			for _, line := range strings.Split(string(c.Content), "\n") {
				if line != "" && !seen[line] {
					seen[line] = true
					out = append(out, line)
				}
			}
		}
		return []byte(strings.Join(out, "\n") + "\n"), nil
	}
	for _, s := range h.c.Sites() {
		h.r(s).RegisterManager(storage.TypeDatabase, mgr)
	}
	rep := h.merge(t)
	if rep.ManagerMerged != 1 {
		t.Fatalf("ManagerMerged = %d, want 1", rep.ManagerMerged)
	}
	got := read(t, h.c.K(2), "/db")
	for _, want := range []string{"a=1", "b=2", "c=3"} {
		if !strings.Contains(got, want) {
			t.Fatalf("merged db missing %q: %q", want, got)
		}
	}
}

func TestReconcileIdempotent(t *testing.T) {
	// Running reconciliation twice must not change anything further.
	h := newHarness(t, 2)
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	write(t, h.c.K(1), "/a", "1")
	write(t, h.c.K(2), "/b", "2")
	h.mergeOnce(t)
	rep2 := h.mergeOnce(t)
	if rep2.DirsMerged != 0 || rep2.ConflictsReported != 0 || rep2.Propagated != 0 {
		t.Fatalf("second pass not idempotent: %+v", rep2)
	}
}

func TestThreeWayPartitionMerge(t *testing.T) {
	// Three partitions each create a file; after a full merge everyone
	// sees all three.
	h := newHarness(t, 3)
	h.c.Partition([]fs.SiteID{1}, []fs.SiteID{2}, []fs.SiteID{3})
	for s := fs.SiteID(1); s <= 3; s++ {
		write(t, h.c.K(s), fmt.Sprintf("/file%d", s), fmt.Sprintf("site %d", s))
	}
	// Merge runs the two passes this needs: the first merges pairwise
	// histories into one dominant root, the second propagates files
	// scheduled by directory merge.
	h.merge(t)
	for s := fs.SiteID(1); s <= 3; s++ {
		got := dirNames(t, h.c.K(s), "/")
		for i := 1; i <= 3; i++ {
			if !containsStr(got, fmt.Sprintf("file%d", i)) {
				t.Fatalf("site %d sees %v", s, got)
			}
		}
	}
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}
