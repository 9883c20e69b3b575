package fs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lint/invariant"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestDirOpAssertsItsInodeChange: the CSS removes an unlinked name
// before it commits the file's change, so the tombstone records the
// version that commit will make, and it raises a linked file's count by
// one before it enters the name (handleDirOp). Under the invariant layer
// the CSS checks both against what it committed, and panics on a
// mismatch. Here the CSS, site 1, opens /d/f and then /d (FileID order:
// site 2 made /d from its higher inode range), and the revoke round of
// /d's open, to site 3, which holds a read delegation on /d (site 2's
// own is dropped, not called back), forges the inode of the CSS's
// handle on /d/f: another version than the committed
// one for site 2's unlink, which then records the successor of the
// forged version and commits the delete of the real one, and another
// link count for its link, which commits the forged count plus one over
// the real count.
func TestDirOpAssertsItsInodeChange(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("the assertion is compiled in by -tags locusinvariants")
	}
	for _, tc := range []struct {
		op, panic string
		forge     func(ino *storage.Inode)
		run       func(k *Kernel, cred *Cred) error
	}{
		{"unlink", "the tombstone of", func(ino *storage.Inode) { ino.VV = ino.VV.Bump(2) },
			func(k *Kernel, cred *Cred) error { return k.Unlink(cred, "/d/f") }},
		{"link", "committed 6 links over 1", func(ino *storage.Inode) { ino.Nlink = 5 },
			func(k *Kernel, cred *Cred) error { return k.Link(cred, "/d/f", "/d/g") }},
	} {
		t.Run(tc.op, func(t *testing.T) {
			ks := bootSites(t, 3)
			cred := DefaultCred("tester")
			if err := ks[1].Mkdir(cred, "/d", 0755); err != nil {
				t.Fatal(err)
			}
			f, err := ks[0].Create(cred, "/d/f", storage.TypeRegular, 0644)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			d, err := ks[1].Resolve(cred, "/d")
			if err != nil {
				t.Fatal(err)
			}
			if f.id.Compare(d.ID) >= 0 {
				t.Fatalf("set-up: /d/f is %v, not before /d's %v", f.id, d.ID)
			}
			r, err := ks[2].OpenID(d.ID, ModeRead) // site 3 takes a delegation on /d
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if _, held := ks[2].Delegations()[d.ID]; !held {
				t.Fatal("set-up: site 3 holds no delegation on /d")
			}
			forged := false
			ks[0].node.Network().SetObserver(func(p netsim.Point) netsim.FaultAction {
				if p.Kind != netsim.PointRequest || p.Method != mLeaseRevoke.Name || forged {
					return netsim.FaultNone
				}
				ks[0].mu.Lock()
				for h := range ks[0].openFiles {
					if h.id == f.id && h.mode == ModeModify {
						ino := h.ino.Clone()
						tc.forge(ino)
						h.ino, forged = ino, true
					}
				}
				ks[0].mu.Unlock()
				return netsim.FaultNone
			})
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.panic) {
					t.Fatalf("the %s panicked with %q (forged: %v)", tc.op, msg, forged)
				}
			}()
			tc.run(ks[1], cred) //nolint:errcheck // it must not return
			t.Fatalf("a %s through a forged inode went through (forged: %v)", tc.op, forged)
		})
	}
}
