package fs_test

import (
	"bytes"
	"testing"

	"repro/internal/fs"
	"repro/internal/storage"
)

func TestStreamingReadaheadCutsSequentialReadMessages(t *testing.T) {
	c := newCluster(t, 2)
	data := bytes.Repeat([]byte{'s'}, 8*storage.PageSize)
	writeFile(t, c.K(1), "/seq", data)
	if err := c.K(1).SetReplication(cred(), "/seq", []fs.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	scan := func(ft fs.Features) (msgs, reads int64) {
		c.K(2).SetFeatures(ft)
		f, err := c.K(2).Open(cred(), "/seq", fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck
		before := c.Net.Stats()
		buf := make([]byte, storage.PageSize)
		for pn := 0; pn < 8; pn++ {
			if _, err := f.ReadAt(buf, int64(pn)*storage.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		d := c.Net.Stats().Sub(before)
		return d.Msgs, d.ByMethod["fs.read"]
	}

	// Baseline: no US cache, no readahead — the pure §2.3.3 protocol.
	plain, _ := scan(fs.Features{NoPageCache: true})
	if plain != 16 {
		t.Fatalf("plain sequential scan = %d msgs, want 16 (2/page)", plain)
	}

	// Streaming readahead: the window doubles on sequential hits
	// (1 extra at page 0, 4 at page 2, and page 7 is the last page), so
	// the 8-page scan takes 3 exchanges = 6 messages.
	ra, raReads := scan(fs.Features{Readahead: true})
	if ra != 6 || raReads != 6 {
		t.Fatalf("streaming readahead scan = %d msgs (%d fs.read), want 6 (3 exchanges)", ra, raReads)
	}
	if plain < 2*ra {
		t.Fatalf("readahead reduction %d -> %d msgs is under 2x", plain, ra)
	}

	// Second sequential pass through a fresh handle: every page is
	// served from the using-site cache with zero mRead calls.
	warm, warmReads := scan(fs.Features{})
	if warmReads != 0 || warm != 0 {
		t.Fatalf("warm re-read = %d msgs (%d fs.read), want 0 (all from US cache)", warm, warmReads)
	}

	// Content correctness through the cache + readahead path.
	c.K(2).SetFeatures(fs.Features{Readahead: true})
	f, err := c.K(2).Open(cred(), "/seq", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	got, err := f.ReadAll()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("readahead content mismatch (%d vs %d bytes), err=%v", len(got), len(data), err)
	}
}

// TestSetFeaturesTransitions pins the two state transitions
// SetFeatures owns: switching leases off leaves no held lease and no
// CSS delegate record, and switching the page cache off flushes it and
// keeps it empty.
func TestSetFeaturesTransitions(t *testing.T) {
	c, id := leaseCluster(t) // leases on; file stored at sites 3, 4; CSS = 1
	openClose(t, c.K(2), id, fs.ModeRead)
	if len(c.K(2).Leases()) != 1 || len(c.K(1).Delegates()) != 1 {
		t.Fatalf("setup: want one delegation at site 2 recorded at the CSS, got %v / %v",
			c.K(2).Leases(), c.K(1).Delegates())
	}
	c.SetFeatures(fs.Features{})
	for _, s := range c.Sites() {
		if l, d := c.K(s).Leases(), c.K(s).Delegates(); len(l) != 0 || len(d) != 0 {
			t.Fatalf("site %d after {Leases} -> {}: leases %v, delegates %v", s, l, d)
		}
	}

	readAll := func() {
		t.Helper()
		f, err := c.K(2).OpenID(id, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck
		if _, err := f.ReadAll(); err != nil {
			t.Fatal(err)
		}
	}
	readAll()
	if c.K(2).CachedPages() == 0 {
		t.Fatal("setup: a remote read should have populated the using-site cache")
	}
	c.K(2).SetFeatures(fs.Features{NoPageCache: true})
	if n := c.K(2).CachedPages(); n != 0 {
		t.Fatalf("{} -> {NoPageCache}: %d pages still cached", n)
	}
	readAll()
	if n := c.K(2).CachedPages(); n != 0 {
		t.Fatalf("cache accepted %d pages while off", n)
	}
}

func TestReadaheadWriterSeesOwnWrites(t *testing.T) {
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", bytes.Repeat([]byte{'a'}, 2*storage.PageSize))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{1}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	c.K(2).SetFeatures(fs.Features{Readahead: true})
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
