package fs

import (
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestMethodTable pins the fs protocol's declared surface: the handlers
// a booted site registers are exactly the declared descriptors, and the
// at-most-once class of each is today's. A reclassification must fail
// here, not pass a review.
func TestMethodTable(t *testing.T) {
	k := bootSolo(t)
	declared := []struct {
		name       string
		atMostOnce bool
	}{
		{mOpen.Name, mOpen.AtMostOnce},
		{mSSOpen.Name, mSSOpen.AtMostOnce},
		{mRead.Name, mRead.AtMostOnce},
		{mWrite.Name, false},
		{mCommit.Name, mCommit.AtMostOnce},
		{mClose.Name, mClose.AtMostOnce},
		{mSSClose.Name, mSSClose.AtMostOnce},
		{mCreate.Name, mCreate.AtMostOnce},
		{mSSCreate.Name, mSSCreate.AtMostOnce},
		{mDirOp.Name, mDirOp.AtMostOnce},
		{mPropNotify.Name, false},
		{mPullOpen.Name, mPullOpen.AtMostOnce},
		{mReadPhys.Name, mReadPhys.AtMostOnce},
		{mPullPages.Name, mPullPages.AtMostOnce},
		{mGetVV.Name, mGetVV.AtMostOnce},
		{mSetAttr.Name, false},
		{mRecallWriter.Name, mRecallWriter.AtMostOnce},
		{mRevokeServe.Name, mRevokeServe.AtMostOnce},
		{mLeaseRevoke.Name, mLeaseRevoke.AtMostOnce},
		{mLeaseRelease.Name, mLeaseRelease.AtMostOnce},
		{mListInodes.Name, mListInodes.AtMostOnce},
		{mMarkConflict.Name, false},
	}
	var names, atMostOnce []string
	seen := map[string]bool{}
	for _, d := range declared {
		if seen[d.name] {
			t.Errorf("method name %q declared twice", d.name)
		}
		seen[d.name] = true
		if !strings.HasPrefix(d.name, "fs.") {
			t.Errorf("method name %q lacks the fs. prefix", d.name)
		}
		names = append(names, d.name)
		if d.atMostOnce {
			atMostOnce = append(atMostOnce, d.name)
		}
	}
	sort.Strings(names)
	if got := k.node.Methods(); !reflect.DeepEqual(got, names) {
		t.Errorf("registered handlers differ from the declared descriptors:\n got  %v\n want %v", got, names)
	}
	want := []string{
		"fs.close", "fs.commit", "fs.create", "fs.dirop", "fs.leaserelease", "fs.leaserevoke",
		"fs.open", "fs.recallwriter", "fs.ssclose", "fs.sscreate", "fs.ssopen",
	}
	sort.Strings(atMostOnce)
	if !reflect.DeepEqual(atMostOnce, want) {
		t.Errorf("at-most-once set changed:\n got  %v\n want %v", atMostOnce, want)
	}
	// The page-carrying pull responses hand their buffers over: the
	// puller's container adopts them (storage.Container.AdoptPage).
	for _, name := range []string{mPullOpen.Name, mPullPages.Name, mReadPhys.Name} {
		if slices.Contains(atMostOnce, name) {
			t.Errorf("%s is at-most-once: the dedup window would replay its cached response to a retry, "+
				"and the page buffers in it already belong to the container that adopted them from the first delivery — "+
				"one buffer, two owners, put in the pool twice. A pull response must be made for one receiver", name)
		}
	}
}

// TestStaleCloseAndRevokeSpareTheSuccessorWriter is the handler-level
// regression test for the `no modify open of <1,1> from site N` flake.
// A site re-opens a hot directory right after closing it, so a close or
// a lock-table-validation revoke aimed at registration A can land after
// registration B from the same site holds the writer slot. Matched by
// site alone they tore down B's serving state (and the CSS record, so a
// second writer was then granted). Matched by (site, serial) they are
// ignored.
func TestStaleCloseAndRevokeSpareTheSuccessorWriter(t *testing.T) {
	k := bootSolo(t)
	cr := DefaultCred("tester")
	f, err := k.Create(cr, "/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	id := f.ID()
	const serialA, serialB = 1001, 1002

	// Open A. No File is registered, so to a recall of A the
	// registration has vanished — the state a lost close leaves behind.
	if _, err := k.handleOpen(1, &openReq{ID: id, Mode: ModeModify, US: 1, Serial: serialA}); err != nil {
		t.Fatalf("open A: %v", err)
	}
	// Open B from the same site: the CSS recalls A (gone), revokes its
	// serving state and grants B.
	if _, err := k.handleOpen(1, &openReq{ID: id, Mode: ModeModify, US: 1, Serial: serialB}); err != nil {
		t.Fatalf("open B after A vanished: %v", err)
	}

	// A's close and a revoke aimed at A arrive late.
	if _, err := k.handleClose(1, &closeReq{ID: id, US: 1, Mode: ModeModify, Serial: serialA}); err != nil {
		t.Fatalf("late close of A: %v", err)
	}
	if _, err := k.handleRevokeServe(1, &revokeServeReq{ID: id, US: 1, Serial: serialA}); err != nil {
		t.Fatalf("late revoke of A: %v", err)
	}

	// B still writes and commits.
	page := make([]byte, storage.PageSize)
	copy(page, "written by B")
	if err := k.handleWrite(1, &writeReq{ID: id, Page: 0, Data: page, Size: 12}); err != nil {
		t.Fatalf("write through B: %v", err)
	}
	if _, err := k.handleCommit(1, &commitReq{ID: id, US: 1}); err != nil {
		t.Fatalf("commit through B after A's late close and revoke: %v", err)
	}
	// ...and still holds the CSS writer slot.
	k.mu.Lock()
	e := k.cssState[id]
	holder, serial := e.writerUS, e.writerSerial
	k.mu.Unlock()
	if holder != 1 || serial != serialB {
		t.Fatalf("CSS writer record = (site %d, serial %d), want B's (1, %d)", holder, serial, serialB)
	}

	// B's own close releases both.
	if _, err := k.handleClose(1, &closeReq{ID: id, US: 1, Mode: ModeModify, Serial: serialB}); err != nil {
		t.Fatal(err)
	}
	k.mu.Lock()
	_, serving := k.ssState[id]
	holder = e.writerUS
	k.mu.Unlock()
	if serving || holder != 0 {
		t.Fatalf("after B's close: serving state present=%v, CSS writer=%d; want none", serving, holder)
	}
	if got, err := k.Open(cr, "/f", ModeRead); err != nil {
		t.Fatal(err)
	} else {
		data, err := got.ReadAll()
		if err != nil || string(data) != "written by B" {
			t.Fatalf("read back %q, %v", data, err)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
