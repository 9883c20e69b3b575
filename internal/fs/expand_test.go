package fs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/storage"
)

// bootBystander is bootFeatureSites(t, 2, ft) plus site 3, which stores
// no pack: every look it makes goes to the CSS, site 1.
func bootBystander(t *testing.T, ft Features) []*Kernel {
	t.Helper()
	ks := bootFeatureSites(t, 2, ft)
	nw := ks[0].node.Network()
	k3, err := BootSite(nw.AddSite(3), ks[0].cfg, nw.Meter(), storage.Costs{})
	if err != nil {
		t.Fatal(err)
	}
	return append(ks, k3)
}

// hiddenTree makes /bin/who, a hidden directory whose vax entry is a file,
// settled at both packs, and returns the hidden directory and the entry.
func hiddenTree(t *testing.T, ks []*Kernel) (hidden, vax storage.FileID) {
	t.Helper()
	cr := DefaultCred("tester")
	if err := ks[0].Mkdir(cr, "/bin", 0755); err != nil {
		t.Fatal(err)
	}
	if err := ks[0].MkHidden(cr, "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	f, err := ks[0].Create(cr, "/bin/who@@/vax", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}
	for path, id := range map[string]*storage.FileID{"/bin/who@@": &hidden, "/bin/who@@/vax": &vax} {
		r, err := ks[0].Resolve(cr, path)
		if err != nil {
			t.Fatal(err)
		}
		*id = r.ID
	}
	return hidden, vax
}

// lockState prints every site's lock-table entry, serving state and lease
// records for id.
func lockState(ks []*Kernel, id storage.FileID) string {
	var b strings.Builder
	for _, k := range ks {
		k.mu.Lock()
		if e := k.cssState[id]; e != nil {
			fmt.Fprintf(&b, "site %d CSS %+v\n", k.site, *e)
		}
		if sv := k.ssState[id]; sv != nil {
			fmt.Fprintf(&b, "site %d SS %+v\n", k.site, *sv)
		}
		if l := k.leases[id]; l != nil {
			fmt.Fprintf(&b, "site %d lease %+v\n", k.site, *l)
		}
		fmt.Fprintf(&b, "site %d in flight %v recalled %v\n", k.site, k.inflightSerials, k.recalledSerials)
		k.mu.Unlock()
	}
	return b.String()
}

// TestExpandOpenTakesNoLock: an openReq.Expand open of a hidden directory
// is the search's look, whatever mode it asks for. The CSS answers it with
// the inode and records nothing: the lock table, the serving state and
// every reader and writer record are as they were — here a reader at site
// 2 and a directory update's writer at site 1.
func TestExpandOpenTakesNoLock(t *testing.T) {
	for _, ft := range []Features{{}, {NoDelegations: true}} {
		ks := bootBystander(t, ft)
		hidden, _ := hiddenTree(t, ks)
		r, err := ks[1].OpenID(hidden, ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		w, _, _, err := ks[0].openID(hidden, ModeModify, false, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := lockState(ks, hidden)
		for _, mode := range []OpenMode{ModeRead, ModeModify} {
			resp, err := ks[0].handleOpen(3, &openReq{ID: hidden, Mode: mode, US: 3, Serial: 99, Expand: true})
			if err != nil || resp.Ino == nil || resp.Ino.Type != storage.TypeHiddenDir || resp.Delegated {
				t.Fatalf("%+v: Expand %v open = %+v, %v; want the hidden directory's inode, no lease", ft, mode, resp, err)
			}
			if after := lockState(ks, hidden); after != before {
				t.Errorf("%+v: an Expand %v open changed the lock state\n%s\nwas\n%s", ft, mode, after, before)
			}
		}
		for _, f := range []*File{w, r} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestExpandOpenPassesBusyHiddenDir: a directory update holds the hidden
// directory's writer slot, and an open by a pathname through it from a site
// that stores nothing still reaches the context entry. The hidden
// directory's open is only the search's look, so it neither waits for the
// slot nor fails with ErrBusy.
func TestExpandOpenPassesBusyHiddenDir(t *testing.T) {
	ks := bootBystander(t, Features{})
	hidden, vax := hiddenTree(t, ks)
	w, _, _, err := ks[1].openID(hidden, ModeModify, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	f, err := ks[2].Open(&Cred{User: "u", HiddenCtx: []string{"vax"}}, "/bin/who", ModeModify)
	if err != nil {
		t.Fatalf("Open(/bin/who) beside a directory update of /bin/who@@: %v", err)
	}
	if f.ID() != vax {
		t.Errorf("Open(/bin/who) opened %v, want the vax entry %v", f.ID(), vax)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirCarriedLookSiteGone: the look a search carries to
// readDirByID names the storage site it found, and that site can leave the
// partition before the read. With the directory stored at a second site
// and nothing cached, the read goes to the site that left, fails as
// unreachable, and is retried on a fresh look, which names the other copy.
func TestReadDirCarriedLookSiteGone(t *testing.T) {
	ks := bootBystander(t, Features{})
	k3 := ks[2]
	if err := ks[0].Mkdir(DefaultCred("tester"), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	f, err := ks[0].Create(DefaultCred("tester"), "/d/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		k.DrainPropagation()
	}
	r, err := k3.Resolve(DefaultCred("tester"), "/d")
	if err != nil {
		t.Fatal(err)
	}
	look, ss, err := k3.lookInternal(r.ID, nil)
	if err != nil || ss != 1 {
		t.Fatalf("the look found %+v at site %d, %v; the test needs site 1", look, ss, err)
	}
	k3.dirs.mu.Lock()
	k3.dirs.m = nil
	k3.dirs.mu.Unlock()
	k3.cache.purge()
	ks[0].node.Network().PartitionGroups([]SiteID{1}, []SiteID{2, 3})
	for _, k := range ks[1:] {
		k.SetPartition([]SiteID{2, 3})
	}
	if _, err := k3.readDirAt(r.ID, look, ss); !errors.Is(err, netsim.ErrUnreachable) {
		t.Fatalf("the carried look's own read = %v, want %v", err, netsim.ErrUnreachable)
	}
	d, ino, err := k3.readDirByID(r.ID, look, ss)
	if err != nil {
		t.Fatalf("reading /d after its looked-at site left: %v", err)
	}
	if _, ok := d.Lookup("f"); !ok || !ino.VV.Equal(look.VV) {
		t.Errorf("read %v at %v, want /d with its f at %v", d.Live(), ino.VV, look.VV)
	}
}
