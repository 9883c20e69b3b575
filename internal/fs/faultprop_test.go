package fs_test

// Commits under lost messages. A lost bulk-pull window must leave the
// old coherent committed copy at the puller and nothing else (§2.3.6 —
// the pull commits via the standard shadow-page mechanism, so a failure
// mid-transfer changes nothing, and the pages it had adopted are freed),
// and the retry is a whole new pull; a directory update whose write
// fails must leave the directory as it was.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/format"
	"repro/internal/fs"
	"repro/internal/netsim"
	"repro/internal/storage"
)

func TestPullWindowLossLeavesOldCopyAndNoPages(t *testing.T) {
	c := newCluster(t, 2)
	const pages = 20
	oldData := bytes.Repeat([]byte{'o'}, pages*storage.PageSize)
	writeFile(t, c.K(1), "/f", oldData)
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	pack2 := c.K(2).Store().Container(r.ID.FG)
	oldIno, err := pack2.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite every page at site 1; the commit notification queues a
	// 20-page pull at site 2: an 8-page window piggybacked on the open,
	// then fs.pullpages windows of 8 and 4.
	newData := bytes.Repeat([]byte{'n'}, pages*storage.PageSize)
	w, err := c.K(1).OpenID(r.ID, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt(newData, 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Drop the second fs.pullpages window and every at-most-once retry
	// of it (sends 2..9 of the method on the 2→1 link: the retry budget
	// is 8 transmissions), so the pull genuinely fails after the first
	// window landed.
	n := 0
	fs.Cut{At: fs.NthRequest(2, 1, "fs.pullpages", 2), Drop: 8}.Run(c.Net, func() { n = c.K(2).DrainPropagation() })
	if n != 0 {
		t.Fatalf("pull succeeded through a dead window: %d", n)
	}

	// The interrupted pull must not have touched the committed copy:
	// same version vector, same readable bytes, no conflict. Nor may it
	// leave anything else behind: the 16 pages that landed before the
	// lost window are freed, so fsck finds no unreferenced page.
	ino, err := pack2.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if !ino.VV.Equal(oldIno.VV) || ino.Conflict {
		t.Fatalf("interrupted pull disturbed the committed copy: vv=%v (want %v) conflict=%v", ino.VV, oldIno.VV, ino.Conflict)
	}
	for i, pp := range ino.Pages {
		data, err := pack2.ReadPage(pp)
		if err != nil {
			t.Fatalf("old copy page %d unreadable after interrupted pull: %v", i, err)
		}
		if !bytes.Equal(data, oldData[i*storage.PageSize:(i+1)*storage.PageSize]) {
			t.Fatalf("old copy page %d corrupted after interrupted pull", i)
		}
	}
	if findings := c.Fsck(false); len(findings) != 0 {
		t.Fatalf("fsck after interrupted pull: %v", findings)
	}

	// The retry is a whole pull: one fs.pullopen exchange with its
	// piggybacked window, then two fs.pullpages exchanges for the rest.
	before := c.Net.Stats()
	if n := c.K(2).DrainPropagation(); n != 1 {
		t.Fatalf("retried pull drained %d files, want 1: %s", n, c.K(2).DebugPendingPropagations())
	}
	d := c.Net.Stats().Sub(before)
	if d.ByMethod["fs.pullopen"] != 2 || d.ByMethod["fs.pullpages"] != 4 || d.ByMethod["fs.readphys"] != 0 {
		t.Fatalf("retry traffic = %v, want one pullopen and two pullpages exchanges", d.ByMethod)
	}
	if d.PullWindowsSent != 3 || d.PullPagesSent != pages {
		t.Fatalf("retry sent %d windows / %d pages, want 3 windows with all %d pages", d.PullWindowsSent, d.PullPagesSent, pages)
	}

	// The replica is current, and no shadow page leaked.
	ino, err = pack2.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	for i, pp := range ino.Pages {
		data, err := pack2.ReadPage(pp)
		if err != nil {
			t.Fatalf("new copy page %d unreadable: %v", i, err)
		}
		if !bytes.Equal(data, newData[i*storage.PageSize:(i+1)*storage.PageSize]) {
			t.Fatalf("new copy page %d has stale content", i)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after retried pull: %v", findings)
	}
}

// TestPullInterruptedAtEveryExchange interrupts a 20-page pull at each
// exchange it makes, one exchange per case: under bulk pull the
// fs.pullopen and both fs.pullpages windows, under SerialPull the
// fs.pullopen and each of the 20 fs.readphys. Each exchange is cut two
// ways: all 8 transmissions of its request are dropped, or the origin
// crashes after its handler ran and before it replied. Right after the
// failed drain the puller must hold its old committed copy and fsck must
// find nothing, no page leaked included; once the network heals (or the
// origin restarts) the retry must bring the replica current.
func TestPullInterruptedAtEveryExchange(t *testing.T) {
	const pages = 20
	type exchange struct {
		method string
		nth    int
	}
	regimes := []struct {
		name      string
		features  fs.Features
		exchanges []exchange
	}{
		{"bulk", fs.Features{}, []exchange{{"fs.pullopen", 1}, {"fs.pullpages", 1}, {"fs.pullpages", 2}}},
		{"serial", fs.Features{SerialPull: true}, []exchange{{"fs.pullopen", 1}}},
	}
	for n := 1; n <= pages; n++ {
		regimes[1].exchanges = append(regimes[1].exchanges, exchange{"fs.readphys", n})
	}
	oldData := bytes.Repeat([]byte{'o'}, pages*storage.PageSize)
	newData := bytes.Repeat([]byte{'n'}, pages*storage.PageSize)
	for _, rg := range regimes {
		for _, ex := range rg.exchanges {
			for _, crash := range []bool{false, true} {
				how := "drop"
				if crash {
					how = "crash"
				}
				t.Run(fmt.Sprintf("%s/%s#%d/%s", rg.name, ex.method, ex.nth, how), func(t *testing.T) {
					c := featureCluster(t, 2, rg.features)
					writeFile(t, c.K(1), "/f", oldData)
					settle(t, c)
					r, err := c.K(1).Resolve(cred(), "/f")
					if err != nil {
						t.Fatal(err)
					}
					pack2 := c.K(2).Store().Container(r.ID.FG)
					oldIno, err := pack2.GetInode(r.ID.Inode)
					if err != nil {
						t.Fatal(err)
					}
					rewriteFile(t, c.K(1), "/f", newData)

					cut := fs.Cut{At: fs.NthRequest(2, 1, ex.method, ex.nth), Drop: 8}
					if crash {
						cut = fs.Cut{At: cut.At, Reply: true, Crash: 1}
					}
					before := c.Net.Stats()
					done := 0
					cut.Run(c.Net, func() { done = c.K(2).DrainPropagation() })
					if done != 0 {
						t.Fatalf("the pull completed through the interruption")
					}
					if crash == c.Net.Up(1) {
						t.Fatalf("origin up = %v after the cut, want %v: the fault missed the exchange", c.Net.Up(1), !crash)
					}
					if d := c.Net.Stats().Sub(before); !crash && d.MsgsDropped != 8 {
						t.Fatalf("%d requests dropped, want 8: the fault missed the exchange", d.MsgsDropped)
					}

					ino, err := pack2.GetInode(r.ID.Inode)
					if err != nil {
						t.Fatal(err)
					}
					if !ino.VV.Equal(oldIno.VV) || ino.Conflict {
						t.Fatalf("interrupted pull disturbed the committed copy: vv=%v (want %v) conflict=%v", ino.VV, oldIno.VV, ino.Conflict)
					}
					committedBufs(t, c, 2, r.ID, oldData)
					if findings := c.Fsck(false); len(findings) != 0 {
						t.Fatalf("fsck after the interrupted pull: %v", findings)
					}

					if crash {
						c.Restart(1)
					}
					settle(t, c)
					committedBufs(t, c, 2, r.ID, newData)
					if findings := c.Fsck(true); len(findings) != 0 {
						t.Fatalf("fsck after the retried pull: %v", findings)
					}
				})
			}
		}
	}
}

// dirAtPack decodes a directory straight from one pack's committed
// pages, bypassing every cache and protocol.
func dirAtPack(t *testing.T, c *cluster.Cluster, site fs.SiteID, id storage.FileID) (*storage.Inode, []string) {
	t.Helper()
	pack := c.K(site).Store().Container(id.FG)
	ino, err := pack.GetInode(id.Inode)
	if err != nil {
		t.Fatalf("site %d: %v", site, err)
	}
	var raw []byte
	for _, pp := range ino.Pages {
		data, err := pack.ReadPage(pp)
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
		raw = append(raw, data...)
	}
	d, err := format.DecodeDir(raw[:ino.Size])
	if err != nil {
		t.Fatalf("site %d: committed directory %v (size %d, version %v) does not decode: %v", site, id, ino.Size, ino.VV, err)
	}
	var names []string
	for _, e := range d.Live() {
		names = append(names, e.Name)
	}
	return ino, names
}

// A directory update whose write fails part-way must commit nothing.
// The update writes the pages it changes one by one: here it creates a
// name longer than a page, a block of its own laid out after the page
// holding a and b, so it writes three pages, and every transmission of
// the second write is dropped. The handle is then dirty with the first
// page, and "closing a file commits it": the update has to abort before
// its deferred close, or the directory is left with a page that
// declares what its other pages do not hold. The update runs at the
// CSS, site 1, for a create at packless site 2 (fs.dirop), and the
// directory is stored at site 3 alone, so the CSS's SS is remote from it.
func TestFailedDirectoryWriteCommitsNothing(t *testing.T) {
	packs := []fs.PackDesc{{Site: 1, Lo: 1, Hi: 1000}, {Site: 3, Lo: 1001, Hi: 2000}}
	cfg, err := fs.NewConfig([]fs.FilegroupDesc{{FG: 1, MountPath: "/", Packs: packs}})
	if err != nil {
		t.Fatal(err)
	}
	c := newClusterCfg(t, cfg, 1, 2, 3)
	k2 := c.K(2)
	if err := c.K(3).Mkdir(&fs.Cred{User: "tester", NCopies: 1}, "/d", 0755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, k2, "/d/a", []byte("a"))
	writeFile(t, k2, "/d/b", []byte("b"))
	settle(t, c)
	r, err := k2.Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	oldIno, _ := dirAtPack(t, c, 3, r.ID)
	if !slices.Equal(oldIno.Sites, []fs.SiteID{3}) {
		t.Fatalf("/d is stored at %v, want site 3 alone", oldIno.Sites)
	}

	long := "/d/c" + strings.Repeat("x", storage.PageSize)
	before := c.Net.Stats()
	var f *fs.File
	fs.Cut{At: fs.NthRequest(1, 3, "fs.write", 2), Drop: 8}.Run(c.Net, func() { // the retry budget of one exchange
		f, err = k2.Create(cred(), long, storage.TypeRegular, 0644)
	})
	d := c.Net.Stats().Sub(before)
	if err == nil {
		f.Close() //nolint:errcheck
		t.Fatal("create succeeded although the directory's second page could not be written")
	}
	if !errors.Is(err, netsim.ErrTimeout) || d.MsgsDropped != 8 || d.ByMethod["fs.write"] != 9 {
		t.Fatalf("create failed with %v, %d requests dropped, %d fs.write sent; want the write's timeout, 8, 9", err, d.MsgsDropped, d.ByMethod["fs.write"])
	}

	settle(t, c)
	for _, site := range []fs.SiteID{3} {
		ino, names := dirAtPack(t, c, site, r.ID)
		if !ino.VV.Equal(oldIno.VV) || ino.Size != oldIno.Size {
			t.Errorf("site %d: /d is at version %v size %d after the failed update, was %v size %d",
				site, ino.VV, ino.Size, oldIno.VV, oldIno.Size)
		}
		if len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Errorf("site %d: /d lists %v after the failed update, want [a b]", site, names)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after the failed update: %v", findings)
	}
	// The name is free and the directory writable again.
	writeFile(t, k2, long, []byte("c"))
	if got := readFile(t, c.K(1), long); string(got) != "c" {
		t.Fatalf("the long name after the retry = %q", got)
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck after the retry: %v", findings)
	}
}

// TestPagePullNeedsItsBase: a commit's notification lists the pages it
// changed, and a storage site pulls only those onto its copy — which
// must then be the version the commit was made on. Here every
// transmission of the notification of one update of /d to site 3 is
// lost — tmp renamed over f0001, which changes the first page and the
// last — and the next update, f1000 renamed on the last page, reaches
// it: site 3's copy is two versions behind, and pulling the last page
// alone onto it would leave the first page as it was, a directory nobody
// wrote. It pulls the whole of /d, and every copy is byte for byte the
// CSS's.
func TestPagePullNeedsItsBase(t *testing.T) {
	c, _ := renameDir(t, 1024, 1, false)
	settle(t, c)
	var err error
	fs.Cut{At: fs.NthRequest(1, 3, "fs.propnotify", 1), Drop: 8}.Run(c.Net, func() { // the retry budget of one send
		err = c.K(1).Rename(cred(), "/d/tmp", "/d/f0001")
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := c.Net.Stats().MsgsDropped
	if dropped != 8 {
		t.Fatalf("%d notifications dropped, want 8", dropped)
	}
	if err := c.K(1).Rename(cred(), "/d/f1000", "/d/f1000x"); err != nil {
		t.Fatal(err)
	}
	before := c.Net.Stats()
	settle(t, c)
	// Site 2 pulls the two pages the updates changed, site 3 all three.
	if got := c.Net.Stats().Sub(before).PullPagesSent; got != 5 {
		t.Errorf("the settle pulled %d pages, want 5", got)
	}
	r, err := c.K(1).Resolve(cred(), "/d")
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.K(1).Store().Container(r.ID.FG).PeekFile(nil, r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []fs.SiteID{2, 3} {
		raw, err := c.K(s).Store().Container(r.ID.FG).PeekFile(nil, r.ID.Inode)
		if err != nil || !bytes.Equal(raw, want) {
			t.Errorf("site %d's copy of /d is not the CSS's (%v)", s, err)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}
