package fs_test

// Pathname search from a site that stores no copy of the directories it
// reads: the looks at the directories in its cache are deferred to the
// search's next exchange with the CSS, which carries the versions read
// and is refused unless each is the version a look would have found; the
// search then looks at every directory, as §2.3.4 has it. Every test here
// runs at site 3, which stores nothing, under both feature regimes, and
// meets a cached directory that another site has since changed, which a
// CSS that accepted a stale version would let the search use.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/format"
	"repro/internal/fs"
	"repro/internal/storage"
)

// noCopyCluster stores "/" at sites 1 and 2, site 1 its CSS, and the
// filegroup mounted at /usr at site 2 alone, its CSS; site 3 stores
// nothing. The tree holds /d/f, /usr/a and, under the hidden directory
// /h, the directory vax holding f. Site 3 has searched every path once,
// so its directory cache holds every directory on them.
func noCopyCluster(t *testing.T, features fs.Features) *cluster.Cluster {
	t.Helper()
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{
		{FG: 1, MountPath: "/", Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}},
		{FG: 2, MountPath: "/usr", Packs: []fs.PackDesc{{Site: 2, Lo: 1, Hi: 1000}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Features = features
	c := newClusterCfg(t, cfg, 1, 2, 3)
	k1 := c.K(1)
	if err := k1.Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k1.MkHidden(cred(), "/h", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k1.Mkdir(cred(), "/h@@/vax", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k1, "/d/f", []byte("f"))
	writeFile(t, k1, "/usr/a", []byte("a"))
	writeFile(t, k1, "/h@@/vax/f", []byte("vax f"))
	settle(t, c)
	for _, path := range []string{"/d/f", "/usr/a", "/h/f"} {
		if _, err := c.K(3).Stat(vaxCred(), path); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// vaxCred expands /h to its vax entry.
func vaxCred() *fs.Cred { return &fs.Cred{User: "tester", HiddenCtx: []string{"vax"}} }

// opens runs op at site 3 and returns the fs.open messages it sent.
func opens(t *testing.T, c *cluster.Cluster, what string, op func(k *fs.Kernel) error) int64 {
	t.Helper()
	before := c.Net.Stats()
	if err := op(c.K(3)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	return c.Net.Stats().Sub(before).ByMethod["fs.open"]
}

func statOp(path string) func(k *fs.Kernel) error {
	return func(k *fs.Kernel) error { _, err := k.Stat(vaxCred(), path); return err }
}

func openOp(path string) func(k *fs.Kernel) error {
	return func(k *fs.Kernel) error {
		f, err := k.Open(vaxCred(), path, fs.ModeRead)
		if err != nil {
			return err
		}
		return f.Close()
	}
}

// TestDeferredLooksOneExchange pins what a search of current cached
// directories costs: one fs.open exchange (two messages) with the CSS
// whatever the path's length, the search's last look or Open's open,
// carrying the versions of the directories read. A path that crosses a
// mount sends the checks of the first filegroup in one look at its last
// directory, /, before it leaves it. Once another site has changed /d, a
// search costs the refused exchange and the paper's walk: /, /d and f.
func TestDeferredLooksOneExchange(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"current", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			for _, tc := range []struct {
				what  string
				op    func(k *fs.Kernel) error
				opens int64
			}{
				{`Stat("/d/f")`, statOp("/d/f"), 2},
				{`Open("/d/f")`, openOp("/d/f"), 2},
				{`ReadDir("/d")`, func(k *fs.Kernel) error { _, err := k.ReadDir(cred(), "/d"); return err }, 2},
				{`Resolve("/d/f")`, func(k *fs.Kernel) error { _, err := k.Resolve(cred(), "/d/f"); return err }, 2},
				// The look at / to site 1, then the look at a to site 2.
				{`Stat("/usr/a")`, statOp("/usr/a"), 4},
				// /, /h and /h@@/vax from the cache.
				{`Stat("/h/f")`, statOp("/h/f"), 2},
			} {
				if got := opens(t, c, tc.what, tc.op); got != tc.opens {
					t.Errorf("%s sent %d fs.open messages, want %d", tc.what, got, tc.opens)
				}
			}
			writeFile(t, c.K(2), "/d/g", nil)
			settle(t, c)
			if got := opens(t, c, `Stat("/d/f") after /d changed`, statOp("/d/f")); got != 8 {
				t.Errorf(`Stat("/d/f") after /d changed sent %d fs.open messages, want 8`, got)
			}
			if got := opens(t, c, `Stat("/d/f") again`, statOp("/d/f")); got != 2 {
				t.Errorf(`Stat("/d/f") again sent %d fs.open messages, want 2`, got)
			}
		})
	}
}

// TestDeferredLookStaleCostsOneMore: from a cache another site's update
// made stale, a search costs exactly one exchange more than the paper's
// walk, which looks at every file on the path: the exchange the CSS
// refused. The paper's walk of /d/f is three exchanges, /, /d and f.
func TestDeferredLookStaleCostsOneMore(t *testing.T) {
	for _, rg := range regimes {
		for _, tc := range []struct {
			what string
			op   func(k *fs.Kernel) error
		}{{"stat", statOp("/d/f")}, {"open", openOp("/d/f")}} {
			t.Run(rg.prefix+tc.what, func(t *testing.T) {
				c := noCopyCluster(t, rg.features)
				if err := tc.op(c.K(3)); err != nil { // the open's own lease, if any
					t.Fatal(err)
				}
				rewriteFile(t, c.K(1), "/d/f", []byte("f2"))
				writeFile(t, c.K(1), "/d/g", nil)
				settle(t, c)
				if got, paper := opens(t, c, tc.what, tc.op)/2, int64(3); got != paper+1 {
					t.Errorf("%s from a stale cache made %d fs.open exchanges, want the paper's %d and one more", tc.what, got, paper)
				}
			})
		}
	}
}

// TestDeferredLookSeesNewName: /d is cached at site 3 from before another
// site created /d/g in it. The name is missing from the cached copy, but
// the search returns that only once the CSS has confirmed the copy, which
// it does not: the search looks again and opens g.
func TestDeferredLookSeesNewName(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"create", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			writeFile(t, c.K(2), "/d/g", []byte("g"))
			settle(t, c)
			f, err := c.K(3).Open(cred(), "/d/g", fs.ModeRead)
			if err != nil {
				t.Fatalf(`Open("/d/g") from a stale cache of /d: %v`, err)
			}
			if data, err := f.ReadAll(); err != nil || string(data) != "g" {
				t.Errorf("read %q, %v, want g", data, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// A name that is missing from a confirmed copy is missing.
			if _, err := c.K(3).Stat(cred(), "/d/nope"); !errors.Is(err, fs.ErrNotFound) {
				t.Errorf(`Stat("/d/nope") = %v, want ErrNotFound`, err)
			}
		})
	}
}

// TestDeferredLookRenamedOrRemoved: site 3's cache holds / naming /d, and
// /d naming f, from before another site renamed /d to /e, or removed f
// and /d. The paper's search finds no /d in /, and so must this one.
func TestDeferredLookRenamedOrRemoved(t *testing.T) {
	for _, rg := range regimes {
		for _, tc := range []struct {
			what   string
			change func(k *fs.Kernel) error
		}{
			{"renamed", func(k *fs.Kernel) error { return k.Rename(cred(), "/d", "/e") }},
			{"removed", func(k *fs.Kernel) error {
				if err := k.Unlink(cred(), "/d/f"); err != nil {
					return err
				}
				return k.Unlink(cred(), "/d")
			}},
		} {
			t.Run(rg.prefix+tc.what, func(t *testing.T) {
				c := noCopyCluster(t, rg.features)
				if err := openOp("/d/f")(c.K(3)); err != nil { // the open's own lease, if any
					t.Fatal(err)
				}
				if err := tc.change(c.K(2)); err != nil {
					t.Fatal(err)
				}
				settle(t, c)
				if _, err := c.K(3).Stat(cred(), "/d/f"); !errors.Is(err, fs.ErrNotFound) {
					t.Errorf(`Stat("/d/f") = %v, want ErrNotFound`, err)
				}
				if _, err := c.K(3).Open(cred(), "/d/f", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
					t.Errorf(`Open("/d/f") = %v, want ErrNotFound`, err)
				}
			})
		}
	}
}

// TestDeferredLookConflict: /d is updated on both sides of a partition,
// so after the partitions merge its copies at sites 1 and 2 conflict
// (§4.2). Site 3's cached copy is from before; the search must meet the
// conflict, as the paper's does at its look at /d.
func TestDeferredLookConflict(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"conflict", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			c.Partition([]fs.SiteID{1, 3}, []fs.SiteID{2})
			writeFile(t, c.K(1), "/d/a", nil)
			writeFile(t, c.K(2), "/d/b", nil)
			if err := c.Heal(); err != nil {
				t.Fatal(err)
			}
			c.Settle()
			if _, err := c.K(3).Stat(cred(), "/d/f"); !errors.Is(err, fs.ErrConflict) {
				t.Errorf(`Stat("/d/f") = %v, want ErrConflict`, err)
			}
			if _, err := c.K(3).Open(cred(), "/d/f", fs.ModeRead); !errors.Is(err, fs.ErrConflict) {
				t.Errorf(`Open("/d/f") = %v, want ErrConflict`, err)
			}
		})
	}
}

// TestDeferredLookAcrossMount: /usr's root is cached at site 3 from
// before site 2, its filegroup's CSS, renamed /usr/a to /usr/old and
// created a new /usr/a. The look at / goes to site 1 as the search leaves
// the root filegroup, and the open carries /usr's version to site 2, which
// refuses it: the open is of the new file.
func TestDeferredLookAcrossMount(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"mount", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			if err := openOp("/usr/a")(c.K(3)); err != nil { // the open's own lease, if any
				t.Fatal(err)
			}
			if err := c.K(2).Rename(cred(), "/usr/a", "/usr/old"); err != nil {
				t.Fatal(err)
			}
			writeFile(t, c.K(2), "/usr/a", []byte("new a"))
			settle(t, c)
			want, err := c.K(2).Resolve(cred(), "/usr/a")
			if err != nil {
				t.Fatal(err)
			}
			f, err := c.K(3).Open(cred(), "/usr/a", fs.ModeRead)
			if err != nil {
				t.Fatal(err)
			}
			if f.ID() != want.ID {
				t.Errorf(`Open("/usr/a") opened %v, want the new file %v`, f.ID(), want.ID)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeferredLookHiddenDirectory: the hidden directory /h and its vax
// entry, a directory, are cached at site 3 from before site 1 renamed
// /h@@/vax to /h@@/old and made a new /h@@/vax with its own f. /h/f names
// the new f.
func TestDeferredLookHiddenDirectory(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"hidden", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			k1 := c.K(1)
			if err := k1.Rename(cred(), "/h@@/vax", "/h@@/old"); err != nil {
				t.Fatal(err)
			}
			if err := k1.Mkdir(cred(), "/h@@/vax", 0755); err != nil {
				t.Fatal(err)
			}
			writeFile(t, k1, "/h@@/vax/f", []byte("new vax f"))
			settle(t, c)
			want, err := k1.Resolve(vaxCred(), "/h/f")
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.K(3).Stat(vaxCred(), "/h/f")
			if err != nil {
				t.Fatal(err)
			}
			if got.Num != want.ID.Inode || got.Size != int64(len("new vax f")) {
				t.Errorf(`Stat("/h/f") = inode %d of %d bytes, want the new f, %v`, got.Num, got.Size, want.ID)
			}
		})
	}
}

// TestDeferredLookUnderConcurrentRenames: site 3, which stores no copy of
// /d, opens /d/f over and over while site 1, the CSS, rotates two files
// through the names f, g and t, one rename at a time, so that f names X,
// nothing, Y, Y, nothing, X, X, … Every open must find what /d/f named at
// some moment while it ran, or ErrNotFound where that was nothing. (make
// flakegate runs it 200 times.)
func TestDeferredLookUnderConcurrentRenames(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"rotate", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			k1, k3 := c.K(1), c.K(3)
			writeFile(t, k1, "/d/g", []byte("g"))
			settle(t, c)
			x, err := k1.Resolve(cred(), "/d/f")
			if err != nil {
				t.Fatal(err)
			}
			y, err := k1.Resolve(cred(), "/d/g")
			if err != nil {
				t.Fatal(err)
			}
			// names[j] is what /d/f names after j renames (zero: nothing).
			const renames = 48
			steps := [][2]string{{"/d/f", "/d/t"}, {"/d/g", "/d/f"}, {"/d/t", "/d/g"}}
			cycle := []storage.FileID{{}, y.ID, y.ID, {}, x.ID, x.ID}
			names := []storage.FileID{x.ID}
			for j := 0; j < renames; j++ {
				names = append(names, cycle[j%len(cycle)])
			}
			var done atomic.Int64
			var wg sync.WaitGroup
			wg.Add(1)
			errs := make(chan error, 1)
			go func() {
				defer wg.Done()
				for j := 0; j < renames; j++ {
					step := steps[j%len(steps)]
					if err := k1.Rename(cred(), step[0], step[1]); err != nil {
						errs <- fmt.Errorf("rename %s -> %s: %v", step[0], step[1], err)
						done.Store(renames)
						return
					}
					done.Add(1)
				}
			}()
			for n := 0; done.Load() < renames; n++ {
				from := done.Load()
				f, err := k3.Open(cred(), "/d/f", fs.ModeRead)
				to := min(done.Load()+1, renames)
				var got storage.FileID
				if err == nil {
					got = f.ID()
					if err := f.Close(); err != nil {
						t.Fatal(err)
					}
				} else if !errors.Is(err, fs.ErrNotFound) {
					t.Fatalf("open %d: %v", n, err)
				}
				named := false
				for j := from; j <= to; j++ {
					named = named || names[j] == got
				}
				if !named {
					t.Fatalf("open %d, during renames %d to %d, found %v; /d/f named %v", n, from, to, got, names[from:to+1])
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}

// TestDeferredLookReusedInode: site 3's cache holds /a from before site 1
// removed it and, its tombstone collected, reallocated its inode number to
// a new /a holding z. The new directory's versions start again, so the
// copy cached is newer than any of the new one: a check holds only where
// its version is the one a look finds, not where it is newer, and the
// search finds z.
func TestDeferredLookReusedInode(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"reuse", func(t *testing.T) {
			// Five inode numbers: the root, /a and three files, so the
			// new /a takes the old one's number again.
			cfg, err := fs.NewConfig([]fs.FilegroupDesc{
				{FG: 1, MountPath: "/", Packs: []fs.PackDesc{{Site: 1, Lo: 1, Hi: 5}}},
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Features = rg.features
			c := newClusterCfg(t, cfg, 1, 3)
			k1, k3 := c.K(1), c.K(3)
			if err := k1.Mkdir(cred(), "/a", 0755); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"x", "y", "w"} {
				writeFile(t, k1, "/a/"+name, nil)
			}
			settle(t, c)
			old, err := k3.Resolve(cred(), "/a/x")
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{"/a/x", "/a/y", "/a/w", "/a"} {
				if err := k1.Unlink(cred(), path); err != nil {
					t.Fatal(err)
				}
			}
			settle(t, c)
			if n := k1.CollectGarbage(); n != 4 {
				t.Fatalf("CollectGarbage dropped %d tombstones, want 4", n)
			}
			if err := k1.Mkdir(cred(), "/a", 0755); err != nil {
				t.Fatal(err)
			}
			writeFile(t, k1, "/a/z", []byte("z"))
			settle(t, c)
			if r, err := k1.Resolve(cred(), "/a"); err != nil || r.ID != old.Parent {
				t.Fatalf("the new /a is %v, %v; the set-up wants the old /a's number, %v", r, err, old.Parent)
			}
			if _, err := k3.ReadDir(cred(), "/"); err != nil { // / current in site 3's cache
				t.Fatal(err)
			}
			if _, err := k3.Stat(cred(), "/a/z"); err != nil {
				t.Errorf(`Stat("/a/z") from a cached copy of the old /a: %v`, err)
			}
		})
	}
}

// TestDeferredLookAfterPartitionChange: site 3 cached /d in a partition
// with site 1, after site 1 renamed /d/f to /d/f2. Then site 1 crashed
// and site 3 merged with site 2, whose copy of /d is from before the
// rename. The copy cached is newer than any this partition holds, and a
// search here must find what this partition's copy names: f and no f2. A
// CSS that accepted a version newer than its own would confirm the copy
// cached.
func TestDeferredLookAfterPartitionChange(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"partition", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			k3 := c.K(3)
			c.Partition([]fs.SiteID{1, 3}, []fs.SiteID{2})
			if err := c.K(1).Rename(cred(), "/d/f", "/d/f2"); err != nil {
				t.Fatal(err)
			}
			if _, err := k3.Stat(cred(), "/d/f2"); err != nil {
				t.Fatal(err)
			}
			c.Crash(1)
			if err := c.Heal(); err != nil {
				t.Fatal(err)
			}
			if got, want := k3.Partition(), []fs.SiteID{2, 3}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("site 3's partition is %v, want %v", got, want)
			}
			if _, err := k3.Stat(cred(), "/d/f"); err != nil {
				t.Errorf(`Stat("/d/f") in site 2's partition: %v`, err)
			}
			if _, err := k3.Stat(cred(), "/d/f2"); !errors.Is(err, fs.ErrNotFound) {
				t.Errorf(`Stat("/d/f2") in site 2's partition = %v, want ErrNotFound`, err)
			}
		})
	}
}

// TestDirReadAttemptsBounded: every read of /d by site 3 finds a version
// newer than its look, because site 1 commits one as the read leaves
// site 3. The search gives up after fs.DirReadAttempts reads of /d with
// the corrupt read, rather than reading a directory that keeps changing
// for ever.
func TestDirReadAttemptsBounded(t *testing.T) {
	for _, rg := range regimes {
		t.Run(rg.prefix+"bounded", func(t *testing.T) {
			c := noCopyCluster(t, rg.features)
			k1 := c.K(1)
			writeFile(t, k1, "/d/x", nil) // /d is stale in site 3's cache
			settle(t, c)
			names := [2]string{"/d/x", "/d/y"}
			var reads, renames int
			c.Net.SetTrace(func(from, to fs.SiteID, method string) {
				if from != 3 || method != "fs.read" {
					return
				}
				reads++
				if err := k1.Rename(cred(), names[renames%2], names[(renames+1)%2]); err != nil {
					t.Error(err)
				}
				renames++
			})
			_, err := c.K(3).Stat(cred(), "/d/f")
			c.Net.SetTrace(nil)
			if !errors.Is(err, format.ErrCorrupt) {
				t.Errorf(`Stat("/d/f") = %v, want format.ErrCorrupt`, err)
			}
			if reads != fs.DirReadAttempts {
				t.Errorf("site 3 read /d %d times, want %d", reads, fs.DirReadAttempts)
			}
		})
	}
}
