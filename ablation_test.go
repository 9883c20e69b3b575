package repro_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/locus"
)

// Design-rationale measurements that back DESIGN.md rather than a
// specific paper table. The §2.3.3 open shortcuts and the §2.3.4 local
// search are built into the kernel (no switch turns them off); what
// they save is pinned by placement — E2's general open (4 msgs) against
// its US-is-SS / CSS-is-SS rows (2) — and by the two tests below.

// BenchmarkAblationPagePropagation compares page-level propagation
// (the commit notification names the modified pages, §2.3.6) against
// whole-file pulls for a small update to a large file.
func BenchmarkAblationPagePropagation(b *testing.B) {
	for _, pages := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("filepages-%d", pages), func(b *testing.B) {
			c, err := locus.Simple(2)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(c.Close)
			u1 := c.Site(1).Login("u")
			if err := u1.WriteFile("/big", make([]byte, pages*storage.PageSize)); err != nil {
				b.Fatal(err)
			}
			if err := c.Site(1).FS.SetReplication(u1.Cred(), "/big", []locus.SiteID{1, 2}); err != nil {
				b.Fatal(err)
			}
			c.Settle()
			r, err := c.Site(1).FS.Resolve(u1.Cred(), "/big")
			if err != nil {
				b.Fatal(err)
			}
			start := c.Stats().Msgs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w, err := c.Site(1).FS.OpenID(r.ID, fs.ModeModify)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := w.WriteAt(bytes.Repeat([]byte{byte('a' + i%20)}, storage.PageSize), 0); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				c.Settle() // pulls exactly the one modified page
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Stats().Msgs-start)/float64(b.N), "msgs/op")
		})
	}
}

// TestAblationOpenOptimizationSavesMessages pins the US-is-SS shortcut:
// an open from a site that stores the latest copy costs one exchange
// with the CSS and no storage-site poll.
func TestAblationOpenOptimizationSavesMessages(t *testing.T) {
	c, err := locus.Simple(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u1 := c.Site(1).Login("u")
	if err := u1.WriteFile("/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Site(1).FS.SetReplication(u1.Cred(), "/f", []locus.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	r, err := c.Site(1).FS.Resolve(u1.Cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats().Msgs
	f, err := c.Site(3).FS.OpenID(r.ID, fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	opt := c.Stats().Msgs - before
	f.Close() //nolint:errcheck
	if opt != 2 {
		t.Fatalf("optimized US-is-SS open = %d msgs, want 2", opt)
	}
}

// TestAblationLocalSearchSavesMessages proves the local-directory
// search resolves a locally stored path with no network traffic.
func TestAblationLocalSearchSavesMessages(t *testing.T) {
	c, err := locus.Simple(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	u := c.Site(2).Login("u")
	if err := u.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := u.WriteFile("/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.Settle()

	before := c.Stats().Msgs
	if _, err := c.Site(2).FS.Resolve(u.Cred(), "/d/f"); err != nil {
		t.Fatal(err)
	}
	if withFast := c.Stats().Msgs - before; withFast != 0 {
		t.Fatalf("local search = %d msgs, want 0", withFast)
	}
}
