package fs_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/format"
	"repro/internal/fs"
	"repro/internal/lint/invariant"
	"repro/internal/storage"
)

// TestStaleSiteDecodesAgainstItsSnapshot: every directory update makes
// the snapshot the other two sites cache stale, and their next pathname
// search reads the pages that changed and decodes them against it
// (Kernel.loadDir), keeping the chunks the update left alone. Creates, unlinks and renames go round
// the three sites of a 1,100-entry replicated directory, so every site
// is by turns the one that updates and one of the two that catch up,
// and after each of them every site must list the directory and stat
// the touched names exactly as a flat model has them. Under -tags
// locusinvariants loadDir poisons its read buffer before recycling it, so
// a snapshot that kept a slice of it fails here, not in a later test.
func TestStaleSiteDecodesAgainstItsSnapshot(t *testing.T) {
	c := newCluster(t, 3)
	if err := c.K(1).Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	model := map[string]storage.InodeNum{}
	create := func(k *fs.Kernel, name string) {
		t.Helper()
		f, err := k.Create(cred(), "/d/"+name, storage.TypeRegular, 0644)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		model[name] = f.Inode().Num
		if err := f.Close(); err != nil {
			t.Fatalf("close %s: %v", name, err)
		}
	}
	for i := 0; i < 1100; i++ {
		create(c.K(1), fmt.Sprintf("f%04d", i))
	}
	settle(t, c)

	check := func(what string, touched ...string) {
		t.Helper()
		want := make([]string, 0, len(model))
		for name, ino := range model {
			want = append(want, fmt.Sprint(name, " ", ino))
		}
		slices.Sort(want)
		for _, s := range c.Sites() {
			ents, err := c.K(s).ReadDir(cred(), "/d")
			if err != nil {
				t.Fatalf("%s: site %d lists /d: %v", what, s, err)
			}
			got := make([]string, 0, len(ents))
			for _, e := range ents {
				got = append(got, fmt.Sprint(e.Name, " ", e.Inode))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: site %d lists %d entries, the model has %d:\n got %v\nwant %v", what, s, len(got), len(want), got, want)
			}
			for _, name := range touched {
				ino, err := c.K(s).Stat(cred(), "/d/"+name)
				if num, ok := model[name]; ok != (err == nil) || (ok && ino.Num != num) || (!ok && !errors.Is(err, fs.ErrNotFound)) {
					t.Fatalf("%s: site %d stats %s as %+v, %v; the model has inode %d, %v", what, s, name, ino, err, num, ok)
				}
			}
		}
	}
	check("after set-up")

	for op := 0; op < 45; op++ {
		k := c.K(fs.SiteID(1 + op%3))
		name, fresh := fmt.Sprintf("f%04d", (op*97)%1100), fmt.Sprintf("n%04d", op)
		var what string
		switch op / 3 % 3 {
		case 0:
			what = fmt.Sprintf("op %d: site %d creates %s", op, k.Site(), fresh)
			create(k, fresh)
		case 1:
			what = fmt.Sprintf("op %d: site %d unlinks %s", op, k.Site(), name)
			if err := k.Unlink(cred(), "/d/"+name); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			delete(model, name)
		case 2:
			what = fmt.Sprintf("op %d: site %d renames %s to %s", op, k.Site(), name, fresh)
			if err := k.Rename(cred(), "/d/"+name, "/d/"+fresh); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			model[fresh] = model[name]
			delete(model, name)
		}
		settle(t, c)
		check(what, name, fresh)
	}

	// What catching up costs: one create at site 1, then a stat at site 2,
	// whose snapshot of /d that create made stale. The decode allocates the
	// touched chunk, not the directory's 61 KB of entries and 11 KB each of
	// names and read buffer. The median of nine, with the collector off
	// while they are taken: a collection between two of them empties the
	// pools the buffers come from, and the next stat pays for new ones.
	// (Not under locusinvariants: the storage assertions build a map of
	// every referenced page on each free. Under the race detector, whose
	// sync.Pool drops a quarter of what it is given, some readings pay for
	// new buffers, so the bound holds the smallest of the nine: a stat
	// that decodes the whole directory fails it on every reading.)
	grew := func() (grew []uint64) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		for i := 0; i < 9; i++ {
			create(c.K(1), fmt.Sprintf("f0500p%d", i))
			settle(t, c)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := c.K(2).Stat(cred(), "/d/f0001")
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			grew = append(grew, after.TotalAlloc-before.TotalAlloc)
		}
		return grew
	}()
	slices.Sort(grew)
	t.Logf("the nine stats allocate %v bytes", grew)
	pinned, which := grew[len(grew)/2], "median"
	if raceEnabled {
		pinned, which = grew[0], "smallest"
	}
	if pinned > 24<<10 && !invariant.Enabled {
		t.Errorf("a stat at a site one remote create made stale allocates %d bytes (%s of nine: %v), want at most 24 KB", pinned, which, grew)
	}
	check("after the pinned stats")

	if findings := c.Fsck(true); len(findings) > 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestUnsynchronizedReadChecksVersion: an internal handle holds no lock,
// so an update can be committed between two of its page reads. When the
// update keeps the size, nothing but the version tells: the second page
// must fail the read as corrupt (which pathname search retries on a
// fresh open), not be stitched onto the first.
func TestUnsynchronizedReadChecksVersion(t *testing.T) {
	for _, where := range []struct {
		name   string
		reader fs.SiteID // site 1 stores the file
	}{{"local", 1}, {"remote", 2}} {
		t.Run(where.name, func(t *testing.T) {
			cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/",
				Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}}}})
			if err != nil {
				t.Fatal(err)
			}
			c := newClusterCfg(t, cfg, 1, 2)
			old := bytes.Repeat([]byte{'o'}, 2*storage.PageSize)
			writeFile(t, c.K(1), "/f", old)
			r, err := c.K(1).Resolve(cred(), "/f")
			if err != nil {
				t.Fatal(err)
			}
			k := c.K(where.reader)
			f, err := k.OpenID(r.ID, fs.ModeInternal)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close() //nolint:errcheck
			page := make([]byte, storage.PageSize)
			if n, err := f.ReadAt(page, 0); err != nil || n != storage.PageSize || page[0] != 'o' {
				t.Fatalf("first page: %d bytes, %v", n, err)
			}
			rewriteFile(t, c.K(1), "/f", bytes.Repeat([]byte{'n'}, 2*storage.PageSize))
			cached := k.CachedPages()
			if _, err := f.ReadAt(page, storage.PageSize); !errors.Is(err, format.ErrCorrupt) {
				t.Fatalf("second page, read after a same-size commit: err = %v, want format.ErrCorrupt", err)
			}
			if got := k.CachedPages(); got != cached {
				t.Fatalf("the refused page was cached: %d pages, were %d", got, cached)
			}
			if got := readFile(t, k, "/f"); got[0] != 'n' || got[len(got)-1] != 'n' {
				t.Fatal("a fresh open does not read the new version")
			}
		})
	}
}
