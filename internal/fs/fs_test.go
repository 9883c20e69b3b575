package fs_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

// newCluster builds an nSites-site single-filegroup cluster through
// internal/cluster, the one assembly (an external test package may
// import it), and closes it at test cleanup.
func newCluster(t *testing.T, nSites int) *cluster.Cluster {
	t.Helper()
	return featureCluster(t, nSites, fs.Features{})
}

// featureCluster is newCluster booted with the feature selection ft.
func featureCluster(t testing.TB, nSites int, ft fs.Features) *cluster.Cluster {
	t.Helper()
	cfg := cluster.SimpleConfig(nSites)
	cfg.Features = ft
	return newClusterCfg(t, cfg)
}

// newClusterCfg builds a cluster for cfg. sites, when given, is the
// explicit boot list (it may include sites that hold no pack).
func newClusterCfg(t testing.TB, cfg *fs.Config, sites ...fs.SiteID) *cluster.Cluster {
	t.Helper()
	var opts cluster.Options
	for _, s := range sites {
		opts.Sites = append(opts.Sites, cluster.SiteSpec{ID: s})
	}
	c, err := cluster.New(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// settle drains propagation and fails the test if pulls stay queued.
func settle(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	c.Settle()
	msg := ""
	for _, s := range c.Sites() {
		msg += c.K(s).DebugPendingPropagations()
	}
	if msg != "" {
		t.Fatalf("cluster did not settle: %s", msg)
	}
}

func cred() *fs.Cred { return fs.DefaultCred("tester") }

func writeFile(t testing.TB, k *fs.Kernel, path string, data []byte) {
	t.Helper()
	f, err := k.Create(cred(), path, storage.TypeRegular, 0644)
	if err != nil {
		t.Fatalf("create %s: %v", path, err)
	}
	if len(data) > 0 {
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close %s: %v", path, err)
	}
}

func readFile(t *testing.T, k *fs.Kernel, path string) []byte {
	t.Helper()
	f, err := k.Open(cred(), path, fs.ModeRead)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close() //nolint:errcheck
	data, err := f.ReadAll()
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

func TestCreateWriteReadLocal(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	writeFile(t, k, "/hello.txt", []byte("hello, LOCUS"))
	got := readFile(t, k, "/hello.txt")
	if !bytes.Equal(got, []byte("hello, LOCUS")) {
		t.Fatalf("read back %q", got)
	}
}

func TestTransparentRemoteAccess(t *testing.T) {
	// Location transparency (§2.1): the same calls work regardless of
	// where the file is stored.
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("made at site 1"))
	settle(t, c)
	for s := fs.SiteID(1); s <= 3; s++ {
		got := readFile(t, c.K(s), "/f")
		if !bytes.Equal(got, []byte("made at site 1")) {
			t.Fatalf("site %d read %q", s, got)
		}
	}
}

func TestMultiPageFile(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(2)
	data := bytes.Repeat([]byte("0123456789abcdef"), 1024) // 16 KiB = 4 pages
	writeFile(t, k, "/big", data)
	got := readFile(t, c.K(1), "/big")
	if !bytes.Equal(got, data) {
		t.Fatalf("multi-page read mismatch: %d vs %d bytes", len(got), len(data))
	}
}

func TestPartialPageOverwrite(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	writeFile(t, k, "/f", []byte("aaaaaaaaaa"))
	f, err := k.Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("BB"), 3); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, k, "/f")
	if string(got) != "aaaBBaaaaa" {
		t.Fatalf("got %q", got)
	}
}

func TestCommitAbortSemantics(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	writeFile(t, k, "/f", []byte("original"))

	f, err := k.Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("scribbled")); err != nil {
		t.Fatal(err)
	}
	// Uncommitted changes are invisible to readers.
	if got := readFile(t, k, "/f"); string(got) != "original" {
		t.Fatalf("reader saw uncommitted data: %q", got)
	}
	// Writer sees its own changes.
	own, err := f.ReadAll()
	if err != nil || string(own) != "scribbled" {
		t.Fatalf("writer read %q, %v", own, err)
	}
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	own, err = f.ReadAll()
	if err != nil || string(own) != "original" {
		t.Fatalf("after abort writer read %q, %v", own, err)
	}
	if err := f.WriteAll([]byte("final")); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, k, "/f"); string(got) != "final" {
		t.Fatalf("after commit read %q", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleWriterPolicy(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("x"))
	settle(t, c)

	f1, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.K(3).Open(cred(), "/f", fs.ModeModify); !errors.Is(err, fs.ErrBusy) {
		t.Fatalf("second modify open: err = %v, want ErrBusy", err)
	}
	// Readers are still admitted while the writer is active.
	r, err := c.K(3).Open(cred(), "/f", fs.ModeRead)
	if err != nil {
		t.Fatalf("concurrent read open: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	// Lock released: modify open succeeds now.
	f2, err := c.K(3).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatalf("after close: %v", err)
	}
	if err := f2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPropagationBringsReplicasUpToDate(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("v1"))
	settle(t, c)

	// Every pack should now store identical copies with equal vectors.
	var vv0 string
	for s := fs.SiteID(1); s <= 3; s++ {
		ino, err := c.K(s).Stat(cred(), "/f")
		if err != nil {
			t.Fatalf("site %d stat: %v", s, err)
		}
		if s == 1 {
			vv0 = ino.VV.String()
		} else if ino.VV.String() != vv0 {
			t.Fatalf("site %d vector %v != site 1 %v", s, ino.VV, vv0)
		}
	}

	// Update at site 2; settle; all read v2.
	f, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	for s := fs.SiteID(1); s <= 3; s++ {
		if got := readFile(t, c.K(s), "/f"); string(got) != "v2" {
			t.Fatalf("site %d read %q", s, got)
		}
	}
}

func TestPageLevelPropagation(t *testing.T) {
	// Only modified pages travel when the base copy is current.
	c := newCluster(t, 2)
	data := bytes.Repeat([]byte{'a'}, 3*storage.PageSize)
	writeFile(t, c.K(1), "/f", data)
	settle(t, c)

	f, err := c.K(1).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(bytes.Repeat([]byte{'b'}, storage.PageSize), storage.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := c.Net.Stats()
	settle(t, c)
	d := c.Net.Stats().Sub(before)
	// The pull should transfer ~1 page, not 3. With bulk pull the one
	// modified page rides the fs.pullopen piggyback window, so the
	// whole pull is a single exchange and no separate page reads occur.
	if d.ByMethod["fs.readphys"] != 0 || d.ByMethod["fs.pullpages"] != 0 {
		t.Fatalf("page-level propagation used separate page reads, want piggyback only: %v", d.ByMethod)
	}
	if d.PullPagesSent != 1 {
		t.Fatalf("page-level propagation transferred %d pages, want 1 (only the modified page): %v", d.PullPagesSent, d.ByMethod)
	}
	got := readFile(t, c.K(2), "/f")
	want := append(append(bytes.Repeat([]byte{'a'}, storage.PageSize),
		bytes.Repeat([]byte{'b'}, storage.PageSize)...), bytes.Repeat([]byte{'a'}, storage.PageSize)...)
	if !bytes.Equal(got, want) {
		t.Fatal("page-level propagation produced wrong content")
	}
}

func TestMkdirReadDirUnlink(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	if err := k.Mkdir(cred(), "/dir", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/dir/a", []byte("a"))
	writeFile(t, k, "/dir/b", []byte("b"))
	ents, err := k.ReadDir(cred(), "/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "a" || ents[1].Name != "b" {
		t.Fatalf("ReadDir = %+v", ents)
	}
	// Non-empty directory refuses unlink.
	if err := k.Unlink(cred(), "/dir"); !errors.Is(err, fs.ErrNotEmpty) {
		t.Fatalf("unlink non-empty dir: %v", err)
	}
	if err := k.Unlink(cred(), "/dir/a"); err != nil {
		t.Fatal(err)
	}
	if err := k.Unlink(cred(), "/dir/b"); err != nil {
		t.Fatal(err)
	}
	if err := k.Unlink(cred(), "/dir"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(cred(), "/dir"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("stat removed dir: %v", err)
	}
}

func TestUnlinkPropagatesAndGC(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", bytes.Repeat([]byte{'x'}, storage.PageSize*2))
	settle(t, c)
	if err := c.K(2).Unlink(cred(), "/f"); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	for s := fs.SiteID(1); s <= 3; s++ {
		if _, err := c.K(s).Open(cred(), "/f", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
			t.Fatalf("site %d open deleted file: %v", s, err)
		}
	}
	// GC reclaims the tombstone once all packs saw the delete.
	total := 0
	for s := fs.SiteID(1); s <= 3; s++ {
		total += c.K(s).CollectGarbage()
	}
	if total != 1 {
		t.Fatalf("CollectGarbage reclaimed %d inodes, want 1", total)
	}
}

func TestCreateExistsFails(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	writeFile(t, k, "/f", nil)
	if _, err := k.Create(cred(), "/f", storage.TypeRegular, 0644); !errors.Is(err, fs.ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestResolveErrors(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	writeFile(t, k, "/file", []byte("x"))
	cases := []struct {
		path string
		want error
	}{
		{"/missing", fs.ErrNotFound},
		{"/file/below", fs.ErrNotDir},
		{"relative", fs.ErrBadName},
		{"/..", fs.ErrBadName},
	}
	for _, tc := range cases {
		if _, err := k.Resolve(cred(), tc.path); !errors.Is(err, tc.want) {
			t.Errorf("Resolve(%q) = %v, want %v", tc.path, err, tc.want)
		}
	}
}

func TestLinkAndRename(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	writeFile(t, k, "/f", []byte("data"))
	if err := k.Link(cred(), "/f", "/g"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, k, "/g"); string(got) != "data" {
		t.Fatalf("link read %q", got)
	}
	ino, _ := k.Stat(cred(), "/f")
	if ino.Nlink != 2 {
		t.Fatalf("Nlink = %d, want 2", ino.Nlink)
	}
	// A directory cannot be linked, into itself least of all.
	if err := k.Mkdir(cred(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.Link(cred(), "/d", "/d/self"); !errors.Is(err, fs.ErrIsDir) {
		t.Fatalf("Link of a directory = %v, want ErrIsDir", err)
	}
	// Unlink one name: file persists under the other.
	if err := k.Unlink(cred(), "/f"); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, k, "/g"); string(got) != "data" {
		t.Fatalf("after unlink, read %q", got)
	}
	// Rename.
	if err := k.Rename(cred(), "/g", "/h"); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Stat(cred(), "/g"); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("old name still resolves: %v", err)
	}
	if got := readFile(t, k, "/h"); string(got) != "data" {
		t.Fatalf("renamed read %q", got)
	}
}

func TestChmodChownPropagate(t *testing.T) {
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", []byte("x"))
	settle(t, c)
	if err := c.K(1).Chmod(cred(), "/f", 0600); err != nil {
		t.Fatal(err)
	}
	if err := c.K(1).Chown(cred(), "/f", "alice"); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	ino, err := c.K(2).Stat(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	if ino.Mode != 0600 || ino.Owner != "alice" {
		t.Fatalf("site 2 sees mode %o owner %q", ino.Mode, ino.Owner)
	}
}

func TestHiddenDirectories(t *testing.T) {
	// §2.4.1: /bin/who is a hidden directory with per-machine-type load
	// modules; resolution substitutes the process context.
	c := newCluster(t, 2)
	k := c.K(1)
	if err := k.Mkdir(cred(), "/bin", 0755); err != nil {
		t.Fatal(err)
	}
	if err := k.MkHidden(cred(), "/bin/who", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k, "/bin/who@@/vax", []byte("VAX load module"))
	writeFile(t, k, "/bin/who@@/pdp11", []byte("PDP-11 load module"))

	vaxCred := &fs.Cred{User: "u", HiddenCtx: []string{"vax"}}
	pdpCred := &fs.Cred{User: "u", HiddenCtx: []string{"pdp11"}}
	noCred := &fs.Cred{User: "u"}

	f, err := k.Open(vaxCred, "/bin/who", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := f.ReadAll()
	f.Close() //nolint:errcheck
	if string(data) != "VAX load module" {
		t.Fatalf("vax context read %q", data)
	}
	f, err = k.Open(pdpCred, "/bin/who", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = f.ReadAll()
	f.Close() //nolint:errcheck
	if string(data) != "PDP-11 load module" {
		t.Fatalf("pdp11 context read %q", data)
	}
	// No context: the open fails rather than returning an arbitrary
	// version.
	if _, err := k.Open(noCred, "/bin/who", fs.ModeRead); !errors.Is(err, fs.ErrNotFound) {
		t.Fatalf("no-context open: %v", err)
	}
	// Escape: list the hidden directory itself.
	ents, err := k.ReadDir(cred(), "/bin/who@@")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "pdp11" || ents[1].Name != "vax" {
		t.Fatalf("escaped ReadDir = %+v", ents)
	}
	// Context falls through the list in order.
	fallCred := &fs.Cred{User: "u", HiddenCtx: []string{"cray", "vax"}}
	f, err = k.Open(fallCred, "/bin/who", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	data, _ = f.ReadAll()
	f.Close() //nolint:errcheck
	if string(data) != "VAX load module" {
		t.Fatalf("fallback context read %q", data)
	}
}

func TestMultipleFilegroupsAndMounts(t *testing.T) {
	packs1 := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}
	packs2 := []fs.PackDesc{{Site: 2, Lo: 1, Hi: 1000}, {Site: 3, Lo: 1001, Hi: 2000}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{
		{FG: 1, MountPath: "/", Packs: packs1},
		{FG: 2, MountPath: "/usr", Packs: packs2},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg)
	k1 := c.K(1)
	// A file under /usr lives in filegroup 2, stored at sites 2,3 —
	// but naming is fully transparent from site 1.
	writeFile(t, k1, "/usr/f", []byte("cross-filegroup"))
	settle(t, c)
	r, err := k1.Resolve(cred(), "/usr/f")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID.FG != 2 {
		t.Fatalf("file created in filegroup %d, want 2", r.ID.FG)
	}
	if got := readFile(t, c.K(3), "/usr/f"); string(got) != "cross-filegroup" {
		t.Fatalf("site 3 read %q", got)
	}
	// Hard links across the mount fail.
	writeFile(t, k1, "/rootfile", nil)
	if err := k1.Link(cred(), "/rootfile", "/usr/lnk"); !errors.Is(err, fs.ErrCrossFilegroup) {
		t.Fatalf("cross-fg link: %v", err)
	}
}

func TestReplicationFactorPlacement(t *testing.T) {
	c := newCluster(t, 4)
	// NCopies=2: file should be placed at exactly 2 sites, the creating
	// site first.
	cr := &fs.Cred{User: "u", NCopies: 2}
	f, err := c.K(3).Create(cr, "/twocopy", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ino, err := c.K(3).Stat(cred(), "/twocopy")
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Sites) != 2 {
		t.Fatalf("Sites = %v, want 2 entries", ino.Sites)
	}
	if ino.Sites[0] != 3 {
		t.Fatalf("local site first: Sites = %v", ino.Sites)
	}
}

func TestStaleReplicaRefusesToServe(t *testing.T) {
	// A pack holding an old version must refuse to act as SS (§2.3.3).
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("v1"))
	settle(t, c)

	// Site 3 misses the v2 update (isolated), then the writer's sites
	// stay up: readers must get v2, never v1.
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
	f, err := c.K(1).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAll([]byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	// Before site 3 pulls, a read from site 3 must be served by a
	// current site (1 or 2), not its own stale copy.
	g, err := c.K(3).Open(cred(), "/f", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	data, err := g.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Fatalf("stale partition read %q, want v2", data)
	}
	if g.SS() == 3 {
		t.Fatalf("stale copy at site 3 served the open")
	}
	g.Close() //nolint:errcheck
}

func TestOpenMessageCountMatrix(t *testing.T) {
	// Figure 2 / §2.3.3: the open protocol costs depend on which of
	// US/CSS/SS coincide. CSS is site 1 (lowest pack site).
	c := newCluster(t, 3)
	// fileA stored only at site 3: the CSS never stores it.
	writeFile(t, c.K(1), "/a", []byte("A"))
	if err := c.K(1).SetReplication(cred(), "/a", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	// fileB stored at sites 1 and 3.
	writeFile(t, c.K(1), "/b", []byte("B"))
	if err := c.K(1).SetReplication(cred(), "/b", []fs.SiteID{1, 3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	ra, err := c.K(1).Resolve(cred(), "/a")
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.K(1).Resolve(cred(), "/b")
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		id       storage.FileID
		us       fs.SiteID
		wantMsgs int64
		wantSS   fs.SiteID
	}{
		// US=2, CSS=1, SS=3 all distinct: the general protocol of
		// Figure 2 — 4 messages.
		{"general-4msg", ra.ID, 2, 4, 3},
		// US=3 stores the latest version: the CSS selects the US as SS
		// and "just responds appropriately" — 2 messages.
		{"us-is-ss-2msg", rb.ID, 3, 2, 3},
		// CSS stores the latest and US doesn't: CSS picks itself as SS
		// "without any message overhead" — 2 messages.
		{"css-is-ss-2msg", rb.ID, 2, 2, 1},
		// US=CSS=SS=1: the entire open is local — 0 messages.
		{"all-local-0msg", rb.ID, 1, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := c.Net.Stats()
			g, err := c.K(tc.us).OpenID(tc.id, fs.ModeRead)
			if err != nil {
				t.Fatal(err)
			}
			d := c.Net.Stats().Sub(before)
			if d.Msgs != tc.wantMsgs {
				t.Fatalf("open from site %d: %d messages, want %d (%v)", tc.us, d.Msgs, tc.wantMsgs, d.ByMethod)
			}
			if g.SS() != tc.wantSS {
				t.Fatalf("open from site %d chose SS %d, want %d", tc.us, g.SS(), tc.wantSS)
			}
			g.Close() //nolint:errcheck
		})
	}
}

func TestReadWriteCloseMessageCounts(t *testing.T) {
	// §2.3.3/.5: network read = 2 messages, write = 1 message, close of
	// a remotely stored file = 4 messages (US, SS, CSS all distinct): the
	// paper's protocol, read delegations off.
	c := featureCluster(t, 3, fs.Features{NoDelegations: true})
	writeFile(t, c.K(1), "/f", bytes.Repeat([]byte{'x'}, storage.PageSize))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	// US=2; CSS=1; the only current pack is 3 after replication change.
	g, err := c.K(2).Open(cred(), "/f", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	if g.SS() != 3 {
		t.Fatalf("SS = %d, want 3", g.SS())
	}
	before := c.Net.Stats()
	buf := make([]byte, 100)
	if _, err := g.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	d := c.Net.Stats().Sub(before)
	if d.Msgs != 2 {
		t.Fatalf("read: %d messages, want 2 (%v)", d.Msgs, d.ByMethod)
	}
	before = c.Net.Stats()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	d = c.Net.Stats().Sub(before)
	if d.Msgs != 4 {
		t.Fatalf("close: %d messages, want 4 (%v)", d.Msgs, d.ByMethod)
	}

	// Write: one message per full-page write.
	w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	before = c.Net.Stats()
	if _, err := w.WriteAt(bytes.Repeat([]byte{'y'}, storage.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	d = c.Net.Stats().Sub(before)
	if d.Msgs != 1 {
		t.Fatalf("write: %d messages, want 1 (%v)", d.Msgs, d.ByMethod)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWriteDoesNotRetainCallersBuffer: the write protocol ships
// the caller's own page to a remote SS with no private copy, because
// the SS has copied it into a shadow page by the time WriteAt returns.
// A caller that scribbles on its buffer the moment WriteAt returns must
// therefore still commit the bytes it wrote — full pages (shipped as
// they are) and the trailing partial page (merged in a pooled buffer
// that is recycled, and poisoned under -tags locusinvariants, as soon
// as it has been sent).
func TestRemoteWriteDoesNotRetainCallersBuffer(t *testing.T) {
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("seed"))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if w.SS() != 3 {
		t.Fatalf("SS = %d, want 3 (the write must cross the network)", w.SS())
	}
	want := make([]byte, 2*storage.PageSize+100)
	for i := range want {
		want[i] = byte('a' + i%23)
	}
	buf := append([]byte(nil), want...)
	if _, err := w.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, c.K(1), "/f"); !bytes.Equal(got, want) {
		t.Fatalf("committed bytes differ from the bytes written (first 8: % x, want % x)", got[:8], want[:8])
	}
}

func TestCleanupModifyOpenOnSSLoss(t *testing.T) {
	// §5.6 table: remote resource in use locally, file open for update
	// -> discard pages, set error in local file descriptor.
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("v1"))
	if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{3}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if w.SS() != 3 {
		t.Fatalf("SS = %d, want 3", w.SS())
	}
	if err := w.WriteAll([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Site 3 (the SS) is cut off before commit.
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
	if !w.Stale() {
		t.Fatal("modify handle not marked stale after SS loss")
	}
	if _, err := w.WriteAt([]byte("x"), 0); !errors.Is(err, fs.ErrStale) {
		t.Fatalf("write after SS loss: %v", err)
	}
	if err := w.Commit(); !errors.Is(err, fs.ErrStale) {
		t.Fatalf("commit after SS loss: %v", err)
	}
	w.Close() //nolint:errcheck

	// The uncommitted version never becomes visible anywhere.
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	if got := readFile(t, c.K(3), "/f"); string(got) != "v1" {
		t.Fatalf("after heal read %q, want v1", got)
	}
}

func TestCleanupReadOpenFailsOverToOtherCopy(t *testing.T) {
	// §5.6 table: file open for read -> internal close, attempt to
	// reopen at another site with the same version.
	c := newCluster(t, 3)
	writeFile(t, c.K(1), "/f", []byte("stable"))
	settle(t, c)

	r, err := c.K(2).Open(cred(), "/f", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	lostSS := r.SS()
	if lostSS == 2 {
		t.Skipf("open chose local copy; cannot exercise failover")
	}
	// Cut off the serving SS; sites 2 and the remaining pack stay
	// connected.
	var rest []fs.SiteID
	for s := fs.SiteID(1); s <= 3; s++ {
		if s != lostSS {
			rest = append(rest, s)
		}
	}
	c.Partition(rest, []fs.SiteID{lostSS})
	if r.Stale() {
		t.Fatal("read handle should have failed over, not gone stale")
	}
	if r.SS() == lostSS {
		t.Fatal("handle still points at the lost SS")
	}
	data, err := r.ReadAll()
	if err != nil || string(data) != "stable" {
		t.Fatalf("read after failover: %q, %v", data, err)
	}
	r.Close() //nolint:errcheck
}

func TestConflictDetectionOnPartitionedUpdate(t *testing.T) {
	// §4.2: copies modified in different partitions are in conflict
	// after merge; normal opens fail until reconciled.
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", []byte("base"))
	settle(t, c)

	c.Partition([]fs.SiteID{1}, []fs.SiteID{2})
	for s := fs.SiteID(1); s <= 2; s++ {
		f, err := c.K(s).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatalf("site %d open during partition: %v", s, err)
		}
		if err := f.WriteAll([]byte(fmt.Sprintf("from-site-%d", s))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Heal(); err != nil {
		t.Fatal(err)
	}
	settle(t, c)

	// Any open in the merged partition now reports the conflict.
	_, err := c.K(1).Open(cred(), "/f", fs.ModeRead)
	if !errors.Is(err, fs.ErrConflict) {
		t.Fatalf("open of conflicted file: %v, want ErrConflict", err)
	}
}

func TestAvailabilityDuringPartition(t *testing.T) {
	// §4.1: a replicated file remains updatable in every partition that
	// stores a copy.
	c := newCluster(t, 4)
	writeFile(t, c.K(1), "/f", []byte("base"))
	settle(t, c)
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3, 4})
	for _, s := range []fs.SiteID{2, 4} {
		f, err := c.K(s).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatalf("site %d: %v", s, err)
		}
		if err := f.WriteAll([]byte("update")); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoCSSWhenNoPackInPartition(t *testing.T) {
	packs := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 2, Lo: 1001, Hi: 2000}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: packs}})
	if err != nil {
		t.Fatal(err)
	}
	// Site 3 stores no pack at all.
	c := newClusterCfg(t, cfg, 1, 2, 3)
	k3 := c.K(3)
	// With packs reachable, site 3 can use the filesystem.
	f, err := k3.Create(fs.DefaultCred("u"), "/f", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Cut site 3 off from both packs: no CSS reachable.
	c.Partition([]fs.SiteID{1, 2}, []fs.SiteID{3})
	if _, err := k3.Open(fs.DefaultCred("u"), "/f", fs.ModeRead); !errors.Is(err, fs.ErrNoCSS) {
		t.Fatalf("open with no CSS: %v", err)
	}
}

func TestCrashDuringModifyLeavesCommittedVersion(t *testing.T) {
	// The shadow-page commit guarantee across a real crash: "one is
	// always left with either the original file or a completely changed
	// file" (§2.3.6).
	c := newCluster(t, 2)
	writeFile(t, c.K(1), "/f", []byte("committed"))
	settle(t, c)

	w, err := c.K(2).Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if w.SS() != 2 {
		// Local copy exists at 2 after settle, so SS should be 2.
		t.Fatalf("SS = %d, want 2", w.SS())
	}
	if err := w.WriteAll([]byte("never committed")); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	if _, err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, c.K(2), "/f"); string(got) != "committed" {
		t.Fatalf("after crash read %q, want committed", got)
	}
}

func TestTruncate(t *testing.T) {
	c := newCluster(t, 2)
	k := c.K(1)
	writeFile(t, k, "/f", bytes.Repeat([]byte{'z'}, storage.PageSize*2+100))
	f, err := k.Open(cred(), "/f", fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got := readFile(t, k, "/f")
	if string(got) != "zzzzzzzzzz" {
		t.Fatalf("after truncate read %q", got)
	}
	settle(t, c)
	got2 := readFile(t, c.K(2), "/f")
	if !bytes.Equal(got, got2) {
		t.Fatalf("truncate did not propagate: %q vs %q", got, got2)
	}
}

func TestReadAcrossEOFAndSparse(t *testing.T) {
	c := newCluster(t, 1)
	k := c.K(1)
	f, err := k.Create(cred(), "/sparse", storage.TypeRegular, 0644)
	if err != nil {
		t.Fatal(err)
	}
	// Write only page 2; pages 0-1 are holes.
	if _, err := f.WriteAt([]byte("tail"), int64(2*storage.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data := readFile(t, k, "/sparse")
	if len(data) != 2*storage.PageSize+4 {
		t.Fatalf("size = %d", len(data))
	}
	for _, b := range data[:2*storage.PageSize] {
		if b != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
	if string(data[2*storage.PageSize:]) != "tail" {
		t.Fatalf("tail = %q", data[2*storage.PageSize:])
	}
	// Reading past EOF returns 0.
	g, err := k.Open(cred(), "/sparse", fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	n, err := g.ReadAt(make([]byte, 10), g.Size()+100)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF: n=%d err=%v", n, err)
	}
}
