package fs_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/format"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// long is a name of about a thousand bytes that sorts by its prefix p:
// four fill a page.
func long(p string) string { return p + strings.Repeat("x", 990) }

// rereadCluster is /d replicated at sites 1 and 2, cached at site 3,
// which stores nothing, so that each of its directory pages crosses the
// network: page 0 holds a0..a3, page 1 b0..b3, page 2 c0 and c1, each
// name long. Site 1 is the CSS and the storage site site 3 reads from.
// The cluster is booted with features.
func rereadCluster(t *testing.T, features fs.Features) (*cluster.Cluster, storage.FileID) {
	t.Helper()
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: cluster.Packs([]fs.SiteID{1, 2})}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Features = features
	c := newClusterCfg(t, cfg, 1, 2, 3)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "c0", "c1"} {
		writeFile(t, c.K(1), "/d/"+long(p), nil)
	}
	settle(t, c)
	if n := pagesOfD(t, c.K(1)); n != 3 {
		t.Fatalf("set-up: /d takes %d pages, want 3", n)
	}
	r, err := c.K(1).Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	search(t, c, 3, long("a0"))
	return c, r.ID
}

// pagesOfD is the number of pages /d takes as k sees it.
func pagesOfD(t *testing.T, k *fs.Kernel) int {
	t.Helper()
	ino, err := k.Stat(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	return int((ino.Size + storage.PageSize - 1) / storage.PageSize)
}

// search stats /d/name at site s and returns the traffic it made.
func search(t *testing.T, c *cluster.Cluster, s fs.SiteID, name string) netsim.Snapshot {
	t.Helper()
	before := c.Net.Stats()
	if _, err := c.K(s).Stat(cred(), "/d/"+name); err != nil {
		t.Fatalf("site %d stats /d/%.8s: %v", s, name, err)
	}
	return c.Net.Stats().Sub(before)
}

// checkCached checks that the snapshot of /d site 3 caches is the
// version committed at storage site ss and lists and looks up exactly
// as a cold decode of its committed bytes does.
func checkCached(t *testing.T, c *cluster.Cluster, ss fs.SiteID, d storage.FileID) *format.DirSnapshot {
	t.Helper()
	snap, vv := c.K(3).CachedDir(d)
	pack := c.K(ss).Store().Container(d.FG)
	cur, _ := pack.Version(d.Inode)
	raw, err := pack.PeekFile(nil, d.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || !vv.Equal(cur.VV) {
		t.Fatalf("site 3 caches /d at %v, site %d has %v committed", vv, ss, cur.VV)
	}
	if !bytes.Equal(snap.AppendEncoded(nil), raw) {
		t.Fatalf("site 3's snapshot of /d does not encode to the %d bytes committed at site %d", len(raw), ss)
	}
	flat, err := format.DecodeDir(raw)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := format.DecodeDirSnapshot(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snap.Live(), cold.Live(); len(got) != len(want) {
		t.Fatalf("site 3 lists %d entries, a cold decode %d", len(got), len(want))
	}
	for _, e := range flat.Entries {
		got, ok := snap.LookupAny(e.Name)
		if !ok || got.Inode != e.Inode || got.Deleted != e.Deleted || !got.DelVV.Equal(e.DelVV) {
			t.Fatalf("site 3 looks up %.8s as %+v, %v; a cold decode has %+v", e.Name, got, ok, e)
		}
		if _, live := snap.Lookup(e.Name); live == e.Deleted {
			t.Fatalf("site 3 finds %.8s live = %v, a cold decode has it deleted = %v", e.Name, live, e.Deleted)
		}
	}
	return snap
}

// TestStaleReReadReadsOnlyChangedPages pins what site 3's next search
// of /d reads after each update at site 1: the pages whose physical
// page number at the storage site changed since the version site 3
// caches, one fs.read exchange each. A re-read served by another
// storage site, whose page numbers are its own, reads every page and
// still keeps the chunks of the pages that are byte for byte the ones
// it held.
func TestStaleReReadReadsOnlyChangedPages(t *testing.T) {
	c, d := rereadCluster(t, fs.Features{})
	k1 := c.K(1)
	z := "z" + strings.Repeat("y", 8185) // a block of its own on two pages, its tombstone on three
	for _, row := range []struct {
		what   string
		before func() // an update site 3 catches up with first
		update func() error
		reads  int
		pages  int // /d's pages after the update
	}{
		{what: "an in-place insert", update: func() error { writeFile(t, k1, "/d/a0s", nil); return nil }, reads: 1, pages: 3},
		{what: "a tombstone", update: func() error { return k1.Unlink(cred(), "/d/"+long("b1")) }, reads: 1, pages: 3},
		{what: "a re-layout from page 1", update: func() error { writeFile(t, k1, "/d/"+long("b1y"), nil); return nil }, reads: 2, pages: 3},
		{
			what: "an update that drops a page",
			before: func() {
				writeFile(t, k1, "/d/"+z, nil)
				search(t, c, 3, long("a0"))
				if err := k1.Unlink(cred(), "/d/"+z); err != nil {
					t.Fatal(err)
				}
			},
			update: func() error { writeFile(t, k1, "/d/"+z, nil); return nil }, reads: 2, pages: 5,
		},
		{what: "an inode-only commit", update: func() error { return k1.Chmod(cred(), "/d", 0700) }, reads: 0, pages: 5},
	} {
		if row.before != nil {
			row.before()
			search(t, c, 3, long("a0"))
		}
		had := pagesOfD(t, k1)
		if err := row.update(); err != nil {
			t.Fatalf("%s: %v", row.what, err)
		}
		if n := pagesOfD(t, k1); n != row.pages || row.what == "an update that drops a page" && n != had-1 {
			t.Fatalf("%s: /d went from %d pages to %d, want %d", row.what, had, n, row.pages)
		}
		_, registered := c.K(3).OpenHandles()
		got := search(t, c, 3, long("a0"))
		if reads := got.ByMethod["fs.read"] / 2; reads != int64(row.reads) {
			t.Errorf("%s: site 3's search made %d fs.read exchanges, want %d", row.what, reads, row.reads)
		}
		if _, now := c.K(3).OpenHandles(); row.reads == 0 && now != registered {
			t.Errorf("%s: the search that reads nothing made %d handles", row.what, now-registered)
		}
		checkCached(t, c, 1, d)
	}

	// Another storage site: site 2, once site 1 crashed after an update
	// it propagated. Site 3's entry is made to hold site 2's page numbers
	// of the new version: they are numbers of another container, and
	// name nothing site 3 holds.
	held, _ := c.K(3).CachedDir(d)
	writeFile(t, k1, "/d/c0s", nil)
	settle(t, c)
	c.Crash(1)
	at2, err := c.K(2).Store().Container(d.FG).GetInode(d.Inode)
	if err != nil {
		t.Fatal(err)
	}
	c.K(3).ForgeCachedDirPages(d, at2.Pages)
	got := search(t, c, 3, long("a0"))
	if reads := got.ByMethod["fs.read"] / 2; reads != int64(pagesOfD(t, c.K(2))) {
		t.Errorf("served by another storage site: %d fs.read exchanges, want one per page, %d", reads, pagesOfD(t, c.K(2)))
	}
	snap := checkCached(t, c, 2, d)
	for _, name := range []string{long("a0"), long("b0"), z} { // pages 0, 1 and 3: as held
		e, _ := snap.LookupAny(name)
		h, _ := held.LookupAny(name)
		if unsafe.StringData(e.Name) != unsafe.StringData(h.Name) {
			t.Errorf("served by another storage site: the entry %.8s of a page that did not change was decoded again", name)
		}
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if findings := c.Fsck(true); len(findings) > 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestPartialReReadCut cuts site 3's re-read of /d after a re-layout
// that changed pages 1 and 2 (two fs.read exchanges): each read dropped,
// with every retransmission; the storage site crashed as it serves
// either; a new version committed between the look and the reads. The
// search retries on a fresh look, caches no snapshot that mixes
// versions, and fsck stays clean.
func TestPartialReReadCut(t *testing.T) {
	relayout := func(t *testing.T, features fs.Features) (*cluster.Cluster, storage.FileID) {
		c, d := rereadCluster(t, features)
		writeFile(t, c.K(1), "/d/"+long("b1y"), nil)
		return c, d
	}
	for _, n := range []int{1, 2} {
		// The search looks at /, /d and the file, and its retry at /d
		// again: the paper's walk and the fresh look. Under delegations
		// the one on / answers the look at it, and the cut read drops the
		// one the look at /d was granted, so the retry's look goes to the
		// CSS.
		for _, rg := range regimes {
			t.Run(fmt.Sprintf("%sdrop read %d", rg.prefix, n), func(t *testing.T) {
				c, d := relayout(t, rg.features)
				var got netsim.Snapshot
				fs.Cut{At: fs.NthRequest(3, 1, "fs.read", n), Drop: 8}.Run(c.Net, func() { got = search(t, c, 3, long("a0")) })
				if got.MsgsDropped != 8 {
					t.Fatalf("read %d: %d requests dropped, want 8", n, got.MsgsDropped)
				}
				want := int64(4)
				if !rg.features.NoDelegations {
					want = 3
				}
				if opens := got.ByMethod["fs.open"] / 2; opens != want {
					t.Errorf("read %d dropped: %d fs.open exchanges, want %d", n, opens, want)
				}
				checkCached(t, c, 1, d)
				settle(t, c)
				if findings := c.Fsck(true); len(findings) > 0 {
					t.Fatalf("fsck: %v", findings)
				}
			})
		}
		t.Run(fmt.Sprintf("crash at read %d", n), func(t *testing.T) {
			c, d := relayout(t, fs.Features{})
			_, heldVV := c.K(3).CachedDir(d)
			var err error
			fs.Cut{At: fs.NthRequest(3, 1, "fs.read", n), Reply: true, Crash: 1}.Run(c.Net, func() { _, err = c.K(3).Stat(cred(), "/d/"+long("a0")) })
			if c.Net.Up(1) {
				t.Fatalf("read %d: the storage site did not crash", n)
			}
			// The fresh look goes to the CSS that crashed: the search fails
			// until the partition protocol runs, and caches nothing.
			if err == nil {
				t.Fatalf("read %d: the search went through a crashed CSS", n)
			}
			if _, vv := c.K(3).CachedDir(d); !vv.Equal(heldVV) {
				t.Fatalf("read %d: the failed search cached /d at %v", n, vv)
			}
			c.Crash(1)
			search(t, c, 3, long("a0"))
			checkCached(t, c, 2, d)
			if _, err := c.Restart(1); err != nil {
				t.Fatal(err)
			}
			settle(t, c)
			if findings := c.Fsck(true); len(findings) > 0 {
				t.Fatalf("fsck: %v", findings)
			}
		})
	}
	t.Run("commit between look and read", func(t *testing.T) {
		c, d := relayout(t, fs.Features{})
		look, ss, err := c.K(3).LookInternal(d)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, c.K(1), "/d/"+long("c0y"), nil)
		before := c.Net.Stats()
		if _, err := c.K(3).ReadDirByID(d, look, ss); err != nil {
			t.Fatal(err)
		}
		// The first read is refused, the fresh look reads pages 1 and 2.
		if got := c.Net.Stats().Sub(before); got.ByMethod["fs.open"]/2 != 1 || got.ByMethod["fs.read"]/2 != 3 {
			t.Errorf("the re-read after a commit under it: %d fs.open and %d fs.read exchanges, want 1 and 3", got.ByMethod["fs.open"]/2, got.ByMethod["fs.read"]/2)
		}
		checkCached(t, c, 1, d)
		settle(t, c)
		if findings := c.Fsck(true); len(findings) > 0 {
			t.Fatalf("fsck: %v", findings)
		}
	})
}
