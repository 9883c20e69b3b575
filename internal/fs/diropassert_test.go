package fs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/lint/invariant"
	"repro/internal/storage"
)

// TestDirOpAssertsItsInodeChange: the CSS removes an unlinked name
// before it commits the file's change, so the tombstone records the
// version that commit will make, and it raises a linked file's count by
// one before it enters the name (handleDirOp). Under the invariant layer
// the CSS checks both against what it committed, and panics on a
// mismatch. Here the CSS, site 1, opens the file under a writer lease
// whose inode is forged: another version than the committed one for
// site 2's unlink, which then records the successor of the forged
// version and commits the delete of the real one, and another link count
// for its link, which commits the forged count plus one over the real
// count.
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
			func(k *Kernel, cred *Cred) error { return k.Unlink(cred, "/f") }},
		{"link", "committed 6 links over 1", func(ino *storage.Inode) { ino.Nlink = 5 },
			func(k *Kernel, cred *Cred) error { return k.Link(cred, "/f", "/g") }},
	} {
		t.Run(tc.op, func(t *testing.T) {
			ks := bootSites(t, 2)
			cred := DefaultCred("tester")
			for _, k := range ks {
				k.SetFeatures(Features{Leases: true})
			}
			f, err := ks[0].Create(cred, "/f", storage.TypeRegular, 0644)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			w, err := ks[0].Open(cred, "/f", ModeModify) // the CSS takes a writer lease
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			ks[0].mu.Lock()
			l := ks[0].leases[w.id]
			if l == nil || l.mode != ModeModify {
				ks[0].mu.Unlock()
				t.Fatal("set-up: the CSS holds no writer lease on /f")
			}
			forged := l.ino.Clone()
			tc.forge(forged)
			l.ino = forged
			ks[0].mu.Unlock()
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.panic) {
					t.Fatalf("the %s panicked with %q", tc.op, msg)
				}
			}()
			tc.run(ks[1], cred) //nolint:errcheck // it must not return
			t.Fatalf("a %s through a forged inode went through", tc.op)
		})
	}
}
