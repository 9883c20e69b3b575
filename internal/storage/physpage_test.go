package storage_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// TestPhysicalPageNumbersNeverReused pins the contract fs's directory
// re-read rests on (dirCache): a container never hands out a physical
// page number twice and never changes the bytes of a committed page, so
// one number at one storage site names one page's bytes for good. It
// drives a container through shadow-page writes, adopted buffers,
// aborts that free their shadow pages, commits that supersede pages and
// keep others, and drops; then a cluster through writes at a site that
// crashes, misses updates, restarts and catches up by reconciliation.
func TestPhysicalPageNumbersNeverReused(t *testing.T) {
	t.Run("container", func(t *testing.T) {
		c := storage.MustContainer(1, 1, 1, 1000, nil, storage.Costs{})
		r := rand.New(rand.NewSource(1))
		handed := map[storage.PhysPage]bool{}
		written := map[storage.PhysPage][]byte{} // what each page was written with
		fresh := func(p storage.PhysPage, err error, data []byte) storage.PhysPage {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if p == storage.PhysPageNil || handed[p] {
				t.Fatalf("page number %d handed out twice", p)
			}
			handed[p] = true
			written[p] = data
			return p
		}
		var files []storage.InodeNum
		vv := vclock.New()
		for step := 0; step < 2000; step++ {
			if len(files) > 0 && r.Intn(10) == 0 {
				i := r.Intn(len(files))
				c.DropInode(files[i])
				files = append(files[:i], files[i+1:]...)
				continue
			}
			var n storage.InodeNum
			var old []storage.PhysPage
			if len(files) > 0 && r.Intn(3) > 0 {
				n = files[r.Intn(len(files))]
				ino, err := c.GetInode(n)
				if err != nil {
					t.Fatal(err)
				}
				old = ino.Pages
			} else {
				var err error
				if n, err = c.AllocInode(); err != nil {
					t.Fatal(err)
				}
			}
			pages := make([]storage.PhysPage, 1+r.Intn(4))
			var shadow []storage.PhysPage
			for i := range pages {
				if i < len(old) && r.Intn(2) == 0 {
					pages[i] = old[i] // a page the update leaves alone
					continue
				}
				data := make([]byte, storage.PageSize)
				r.Read(data[:1+r.Intn(storage.PageSize)])
				if r.Intn(2) == 0 {
					p, err := c.WritePage(data)
					pages[i] = fresh(p, err, data)
				} else {
					buf := storage.GetPageBuf()
					copy(buf, data)
					p, err := c.AdoptPage(buf)
					pages[i] = fresh(p, err, data)
				}
				shadow = append(shadow, pages[i])
			}
			if r.Intn(5) == 0 {
				c.FreePages(shadow...) // the abort
				if old == nil {
					continue
				}
			} else {
				vv = vv.Bump(1)
				if err := c.CommitInode(&storage.Inode{Num: n, Size: int64(len(pages)) * storage.PageSize, Pages: pages, VV: vv}); err != nil {
					t.Fatal(err)
				}
			}
			if old == nil {
				files = append(files, n)
			}
			if step%20 != 0 {
				continue
			}
			// Every committed page still holds what it was written with.
			for _, f := range files {
				ino, err := c.GetInode(f)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := c.PeekFile(nil, f)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range ino.Pages {
					if !bytes.Equal(raw[i*storage.PageSize:(i+1)*storage.PageSize], written[p]) {
						t.Fatalf("step %d: page %d of file %d, physical page %d, no longer holds what was written to it", step, i, f, p)
					}
				}
			}
		}
		if len(handed) < 2000 {
			t.Fatalf("only %d pages handed out", len(handed))
		}
	})

	t.Run("crash", func(t *testing.T) {
		cl, err := cluster.New(cluster.SimpleConfig(2), cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		cred := fs.DefaultCred("tester")
		write := func(s fs.SiteID, path string, fill byte, create bool) {
			t.Helper()
			var f *fs.File
			var err error
			if create {
				f, err = cl.K(s).Create(cred, path, storage.TypeRegular, 0644)
			} else {
				f, err = cl.K(s).Open(cred, path, fs.ModeModify)
			}
			if err != nil {
				t.Fatalf("site %d writes %s: %v", s, path, err)
			}
			if err := f.WriteAll(bytes.Repeat([]byte{fill}, 2*storage.PageSize+int(fill))); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		// seen is every page number site 1's container has been seen to
		// hold committed, with the bytes it held: a number freed since
		// that came back would show as other bytes.
		seen := map[storage.PhysPage][]byte{}
		check := func(when string) {
			t.Helper()
			c := cl.K(1).Store().Container(1)
			for _, n := range c.ListInodes() {
				ino, err := c.GetInode(n)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := c.PeekFile(nil, n)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range ino.Pages {
					b := raw[i*storage.PageSize : min(len(raw), (i+1)*storage.PageSize)]
					if had, ok := seen[p]; ok && !bytes.Equal(had, b) {
						t.Fatalf("%s: physical page %d holds other bytes than it did", when, p)
					}
					seen[p] = bytes.Clone(b)
				}
			}
		}
		for i := 0; i < 8; i++ {
			write(1, fmt.Sprintf("/f%d", i), byte('a'+i), true)
		}
		cl.Settle()
		check("after the creates")
		for i := 0; i < 8; i += 2 {
			write(1, fmt.Sprintf("/f%d", i), byte('A'+i), false)
		}
		cl.Settle()
		check("after the rewrites")
		cl.Crash(1)
		for i := 1; i < 8; i += 2 {
			write(2, fmt.Sprintf("/f%d", i), byte('k'+i), false)
		}
		if _, err := cl.Restart(1); err != nil {
			t.Fatal(err)
		}
		cl.Settle()
		check("after the restart caught up")
		for i := 0; i < 8; i++ {
			write(1, fmt.Sprintf("/f%d", i), byte('0'+i), false)
		}
		cl.Settle()
		check("after the writes that followed")
		if len(seen) < 40 {
			t.Fatalf("site 1 was seen to hold %d pages in all", len(seen))
		}
		if findings := cl.Fsck(true); len(findings) > 0 {
			t.Fatalf("fsck: %v", findings)
		}
	})
}
