package fs

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestGrantInFlightDeclined: a read delegation granted on a reply that
// is still on its way back must be declined when, meanwhile, the CSS may
// have dropped its record of this site's delegation without the site
// seeing the delegation go: nothing would call the grant back when the
// file next changes. Site 3 holds a delegation the CSS records on the
// file; a second grant of it stands in flight, its request sent at the
// lease epoch read before the event, and is recorded after it. The
// events are every way the record goes: a revoke round that finds the
// delegation and one that finds none, the site's own modify open, link,
// unlink and create (the CSS drops the opener's record, and that of the
// site whose namespace operation it serves, without a revoke), partition
// cleanup at both ends, and a crash and restart of the site. After each,
// a read open sent after the event is granted and recorded, and fsck
// finds nothing: no delegation the CSS does not record. (The copies are
// not checked for convergence: a crash loses the site's queued pulls,
// which only reconciliation makes up.)
func TestGrantInFlightDeclined(t *testing.T) {
	for _, tc := range []struct {
		name string
		// dir: the grant is on /d, not /d/f.
		dir   bool
		event func(ks []*Kernel, id storage.FileID) error
	}{
		{name: "revoke-hit", event: func(ks []*Kernel, id storage.FileID) error {
			return rewrite(ks[0], id)
		}},
		{name: "revoke-miss", event: func(ks []*Kernel, id storage.FileID) error {
			ks[2].dropLease(id)
			return rewrite(ks[0], id)
		}},
		{name: "modify-open", event: func(ks []*Kernel, id storage.FileID) error {
			return rewrite(ks[2], id)
		}},
		{name: "link", event: func(ks []*Kernel, _ storage.FileID) error {
			return ks[2].Link(DefaultCred("tester"), "/d/f", "/d/l")
		}},
		{name: "unlink", event: func(ks []*Kernel, _ storage.FileID) error {
			return ks[2].Unlink(DefaultCred("tester"), "/d/g")
		}},
		{name: "create", dir: true, event: func(ks []*Kernel, _ storage.FileID) error {
			f, err := ks[2].Create(DefaultCred("tester"), "/d/n", storage.TypeRegular, 0644)
			if err != nil {
				return err
			}
			return f.Close()
		}},
		{name: "cleanup", event: func(ks []*Kernel, _ storage.FileID) error {
			all := []SiteID{1, 2, 3}
			ks[2].CleanupAfterPartitionChange(all)
			ks[0].CleanupAfterPartitionChange(all)
			return nil
		}},
		{name: "crash-restart", event: func(ks []*Kernel, _ storage.FileID) error {
			nw := ks[2].node.Network()
			nw.Crash(3)
			nw.Restart(3)
			ks[2].SetPartition([]SiteID{1, 2, 3})
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
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
			if err := ks[0].Link(cred, "/d/f", "/d/g"); err != nil {
				t.Fatal(err)
			}
			path := "/d/f"
			if tc.dir {
				path = "/d"
			}
			k := ks[2]
			r, err := k.Resolve(cred, path)
			if err != nil {
				t.Fatal(err)
			}
			id := r.ID
			readDelegated(t, k, id)
			ino, ss := k.leaseLook(id)
			epoch := k.grantEpoch()
			if err := tc.event(ks, id); err != nil {
				t.Fatal(err)
			}
			if k.recordLease(id, ss, 1, ino, epoch) {
				t.Error("a grant in flight across the event was recorded")
			}
			readDelegated(t, k, id)
			for _, f := range FsckCluster(ks, FsckOptions{}) {
				t.Errorf("fsck: %v", f)
			}
		})
	}
}

// rewrite opens id for modification at k, writes a byte and closes it,
// which commits a new version.
func rewrite(k *Kernel, id storage.FileID) error {
	f, err := k.OpenID(id, ModeModify)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt([]byte("w"), 0); err != nil {
		return err
	}
	return f.Close()
}

// readDelegated read-opens id at k and closes it, and fails the test
// unless k then holds a read delegation on it.
func readDelegated(t *testing.T, k *Kernel, id storage.FileID) {
	t.Helper()
	f, err := k.OpenID(id, ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, held := k.Delegations()[id]; !held {
		t.Fatalf("site %d is not granted a delegation on %v", k.Site(), id)
	}
}

// TestOwnOpInFlightHoldsNoDelegation: while the site's own link of /d/f
// is in flight, the CSS drops the site's delegate record on the file
// without a revoke, and once it has released the file another site's
// commit revokes nothing here. So at every message the link's exchange
// sends, site 3 holds no delegation on the file: neither the one it held
// when it sent the link, nor one granted to a read open sent once the
// link had left, made before the CSS dropped the record and arriving
// after (recorded here at the CSS's first message of the exchange).
func TestOwnOpInFlightHoldsNoDelegation(t *testing.T) {
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
	// No note of the file's commits reaches site 3 to drop a delegation.
	if err := ks[0].SetReplication(cred, "/d/f", []SiteID{1}); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}
	k := ks[2]
	r, err := k.Resolve(cred, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	id := r.ID
	readDelegated(t, k, id)
	ino, ss := k.leaseLook(id)
	var epoch uint64
	sends, fromCSS := 0, 0
	nw := k.node.Network()
	nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
		if p.Kind != netsim.PointRequest {
			return netsim.FaultNone
		}
		sends++
		if sends == 1 {
			epoch = k.grantEpoch() // a read open sent now
		}
		if p.From == 1 {
			if fromCSS++; fromCSS == 1 {
				k.recordLease(id, ss, 1, ino, epoch)
			}
		}
		if _, held := k.Delegations()[id]; held {
			t.Errorf("site 3 holds a delegation on the file at send %d (%s) of its link", sends, p.Method)
		}
		return netsim.FaultNone
	})
	err = k.Link(cred, "/d/f", "/d/g")
	nw.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if fromCSS == 0 {
		t.Fatal("the CSS sent nothing during the link")
	}
	readDelegated(t, k, id)
	for _, f := range FsckCluster(ks, FsckOptions{}) {
		t.Errorf("fsck: %v", f)
	}
}
