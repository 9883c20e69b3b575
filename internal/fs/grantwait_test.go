package fs

import (
	"testing"

	"repro/internal/storage"
)

// TestDirOpDeclinesGrantInFlight: the CSS drops the record of a site's
// delegation on a file whose link count that site's fs.dirop changes,
// without a revoke. A read open the site sent before, which the CSS
// answered with a grant, may still be on its way back: that grant must
// be declined, since nothing would call it back when the file next
// changes. Here the request in flight is one awaitGrant counts before
// the link, and its reply is recorded after it. A grant requested once
// the link is answered is recorded, and nothing is left awaited.
func TestDirOpDeclinesGrantInFlight(t *testing.T) {
	ks := bootSites(t, 3)
	cred := DefaultCred("tester")
	if err := ks[0].Mkdir(cred, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	w, err := ks[0].Create(cred, "/d/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	k := ks[2]
	r, err := k.Resolve(cred, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	ino, ss, err := k.lookInternal(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.awaitGrant(r.ID)
	if err := k.Link(cred, "/d/f", "/d/g"); err != nil {
		t.Fatal(err)
	}
	if k.recordLease(r.ID, ss, 1, ino) {
		t.Error("a grant in flight across the site's own link was recorded")
	}
	k.endGrant(r.ID)
	if dropped, waits := k.LeaseMarks(); dropped != 0 || waits != 0 {
		t.Errorf("%d remembered revocations, %d grant waits left, want none", dropped, waits)
	}
	f, err := k.Open(cred, "/d/f", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, held := k.Delegations()[r.ID]; !held {
		t.Error("a read open after the link was not granted a delegation")
	}
}

// TestModifyOpenDeclinesGrantInFlight: as TestDirOpDeclinesGrantInFlight,
// for the site's own modify open, whose delegate record the CSS drops
// without a revoke as it drops a namespace operation's. A grant in flight
// across the open and its close is declined, and nothing is left behind.
func TestModifyOpenDeclinesGrantInFlight(t *testing.T) {
	ks := bootSites(t, 3)
	cred := DefaultCred("tester")
	if err := ks[0].Mkdir(cred, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	w, err := ks[0].Create(cred, "/d/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	k := ks[2]
	r, err := k.Resolve(cred, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	ino, ss, err := k.lookInternal(r.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.awaitGrant(r.ID)
	f, err := k.Open(cred, "/d/f", ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if k.recordLease(r.ID, ss, 1, ino) {
		t.Error("a grant in flight across the site's own modify open was recorded")
	}
	k.endGrant(r.ID)
	if dropped, waits := k.LeaseMarks(); dropped != 0 || waits != 0 {
		t.Errorf("%d remembered revocations, %d grant waits left, want none", dropped, waits)
	}
}
