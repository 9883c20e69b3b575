package fs_test

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// TestStreamingReadaheadCutsSequentialReadMessages pins the read
// protocol on an 8-page file stored only at site 1 and read from site 2.
// A read handle streams, whether its open went to the CSS or was served
// under a read delegation: the window doubles on sequential hits (1
// extra page at page 0, 4 at page 2, and page 7 is the last page), so
// the scan takes 3 fs.read exchanges and leaves every page in the
// using-site cache for a 0-message re-read. With the page cache off,
// and for a modify or an internal handle, every page is the
// two-message exchange of §2.3.3 and nothing is piggybacked.
func TestStreamingReadaheadCutsSequentialReadMessages(t *testing.T) {
	data := bytes.Repeat([]byte{'s'}, 8*storage.PageSize)
	for _, tc := range []struct {
		name      string
		ft        fs.Features
		mode      fs.OpenMode
		delegated bool  // the read runs under a read delegation
		reads     int64 // fs.read messages of the scan; it sends no other
		raSent    int64 // pages piggybacked
		rereads   int64 // fs.read messages of a scan through a second handle
	}{
		{"no-page-cache", fs.Features{NoPageCache: true}, fs.ModeRead, false, 16, 0, 16},
		{"read", fs.Features{NoDelegations: true}, fs.ModeRead, false, 6, 5, 0},
		{"delegated", fs.Features{}, fs.ModeRead, true, 6, 5, 0},
		{"modify", fs.Features{}, fs.ModeModify, false, 16, 0, 16},
		{"internal", fs.Features{}, fs.ModeInternal, false, 16, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := featureCluster(t, 2, tc.ft)
			writeFile(t, c.K(1), "/seq", data)
			if err := c.K(1).SetReplication(cred(), "/seq", []fs.SiteID{1}); err != nil {
				t.Fatal(err)
			}
			settle(t, c)
			r, err := c.K(2).Resolve(cred(), "/seq")
			if err != nil {
				t.Fatal(err)
			}
			if tc.delegated {
				openClose(t, c.K(2), r.ID, fs.ModeRead)
				if len(c.K(2).Delegations()) != 1 {
					t.Fatalf("setup: site 2 holds %v, want one read delegation", c.K(2).Delegations())
				}
			}
			scan := func() netsim.Snapshot {
				t.Helper()
				f, err := c.K(2).OpenID(r.ID, tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close() //nolint:errcheck
				before := c.Net.Stats()
				got, err := f.ReadAll()
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("scan read %d of %d bytes, err=%v", len(got), len(data), err)
				}
				return c.Net.Stats().Sub(before)
			}
			d := scan()
			if d.Msgs != tc.reads || d.ByMethod["fs.read"] != tc.reads || d.RAPagesSent != tc.raSent {
				t.Fatalf("scan = %d msgs (%d fs.read), %d pages piggybacked; want %d fs.read only, %d piggybacked",
					d.Msgs, d.ByMethod["fs.read"], d.RAPagesSent, tc.reads, tc.raSent)
			}
			if d := scan(); d.ByMethod["fs.read"] != tc.rereads {
				t.Fatalf("re-read = %d fs.read msgs, want %d", d.ByMethod["fs.read"], tc.rereads)
			}
		})
	}
}

func TestReadaheadWriterSeesOwnWrites(t *testing.T) {
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", bytes.Repeat([]byte{'a'}, 2*storage.PageSize))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //nolint:errcheck
	buf := make([]byte, 4)
	if _, err := w.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("ZZZZ"), storage.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadAt(buf, storage.PageSize); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ZZZZ" {
		t.Fatalf("writer read %q through readahead handle, want ZZZZ", buf)
	}
}

// TestPageCacheInvalidatedByRemoteCommit asserts the single-system-
// image guarantee of the using-site cache: once another US commits a
// new version, a fresh open must see the new data — a stale read from
// the cache is impossible because its entries are version-guarded.
func TestPageCacheInvalidatedByRemoteCommit(t *testing.T) {
	c := newCluster(t, 3)
	oldData := bytes.Repeat([]byte{'1'}, 2*storage.PageSize)
	writeFile(t, c.K(1), "/inv", oldData)
	if err := c.K(1).SetReplication(cred(), "/inv", []fs.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	readAll := func() ([]byte, int64) {
		f, err := c.K(3).Open(cred(), "/inv", fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck
		before := c.Net.Stats()
		got, err := f.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return got, c.Net.Stats().Sub(before).ByMethod["fs.read"]
	}

	// Warm site 3's cache, then prove a re-read is served from it.
	if got, _ := readAll(); !bytes.Equal(got, oldData) {
		t.Fatal("initial read returned wrong data")
	}
	if _, reads := readAll(); reads != 0 {
		t.Fatalf("re-read used %d fs.read messages, want 0 (US cache)", reads)
	}

	// Another US commits a new version.
	newData := bytes.Repeat([]byte{'2'}, 2*storage.PageSize)
	w, err := c.K(2).Open(cred(), "/inv", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(newData); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	// Site 3's next open synchronizes on the new version; its cached v1
	// pages are stale and must not be served.
	got, reads := readAll()
	if !bytes.Equal(got, newData) {
		t.Fatalf("stale read after remote commit: got %q... want %q...", got[:8], newData[:8])
	}
	if reads == 0 {
		t.Fatal("new version was not fetched from the SS (cache served stale pages?)")
	}
	// And the refreshed pages are cached for the next reader.
	if _, reads := readAll(); reads != 0 {
		t.Fatalf("re-read of new version used %d fs.read messages, want 0", reads)
	}
}

func TestMknodAnnotations(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	if err := k.Mknod(cred(), "/dev-lp", 2, "lineprinter", 0666); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	ino, err := c.K(2).Stat(cred(), "/dev-lp")
	if err != nil {
		t.Fatal(err)
	}
	if ino.Type != storage.TypeDevice {
		t.Fatalf("type = %v", ino.Type)
	}
	if ino.Annotations[fs.DevSiteAnnotation] != "2" || ino.Annotations[fs.DevNameAnnotation] != "lineprinter" {
		t.Fatalf("annotations = %v", ino.Annotations)
	}
}
