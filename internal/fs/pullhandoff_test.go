package fs_test

// A pulled page changes hands (§2.3.6: "when each page arrives, the
// buffer that contains it is renamed and sent out to secondary
// storage"): the origin serves a pull a pooled copy, the puller's
// container adopts that buffer, and the origin's committed page is
// never marked shared — so the commit that supersedes it gives its
// buffer back to the pool. The tests here pin the three things that
// rests on: one owner per buffer even when the fault plane duplicates
// a request or loses a response, a pool that stops growing, and what
// one pull allocates.

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/lint/invariant"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// holdCollector makes the page pool (a sync.Pool) exact until the
// returned function is called: the garbage collector is off, since a
// collection empties the pool, and the test runs on one P (as
// testing.AllocsPerRun does), since a buffer parked in another P's
// private slot is invisible to Get. Neither is part of what these tests
// count.
func holdCollector() (release func()) {
	runtime.GC()
	gc, procs := debug.SetGCPercent(-1), runtime.GOMAXPROCS(1)
	return func() {
		runtime.GOMAXPROCS(procs)
		debug.SetGCPercent(gc)
	}
}

// countMallocs returns how many heap allocations f makes.
func countMallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// rewriteFile replaces the whole of an existing file, as WriteFile does.
func rewriteFile(tb testing.TB, k *fs.Kernel, path string, data []byte) {
	tb.Helper()
	f, err := k.Open(cred(), path, fs.ModeModify)
	if err != nil {
		tb.Fatalf("open %s: %v", path, err)
	}
	if err := f.WriteAll(data); err != nil {
		tb.Fatalf("write %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		tb.Fatalf("close %s: %v", path, err)
	}
}

// committedBufs returns the buffers a pack stores the file's pages in
// (the container's own, not copies), checking their content on the way.
func committedBufs(t *testing.T, c *cluster.Cluster, site fs.SiteID, id storage.FileID, want []byte) [][]byte {
	t.Helper()
	pack := c.K(site).Store().Container(id.FG)
	ino, err := pack.GetInode(id.Inode)
	if err != nil {
		t.Fatalf("site %d: %v", site, err)
	}
	if ino.Size != int64(len(want)) {
		t.Fatalf("site %d stores %d bytes of %v, want %d", site, ino.Size, id, len(want))
	}
	var bufs [][]byte
	for i, pp := range ino.Pages {
		buf, err := pack.ReadPageShared(pp)
		if err != nil {
			t.Fatalf("site %d page %d: %v", site, i, err)
		}
		if !bytes.Equal(buf, want[i*storage.PageSize:(i+1)*storage.PageSize]) {
			t.Fatalf("site %d page %d of %v has the wrong content", site, i, id)
		}
		bufs = append(bufs, buf)
	}
	return bufs
}

// TestPulledPagesHaveOneOwner arms the fault plane on the two pull
// exchanges and pulls a 4-page file (all of it rides the open) and a
// 12-page one (a window on the open, then fs.pullpages). A duplicated
// request runs the origin's handler twice and a lost response makes the
// puller ask again; neither may hand one buffer to two owners. That
// holds because no reply to these methods is ever cached — see
// TestPullMethodsReplayNoReply — so every response carries copies made
// for it alone.
func TestPulledPagesHaveOneOwner(t *testing.T) {
	c := newCluster(t, 3)
	type file struct {
		path  string
		pages int
		want  []byte // what the rewrite leaves
	}
	files := []file{{path: "/four", pages: 4}, {path: "/twelve", pages: fs.PullWindow + 4}}
	for i := range files {
		f := &files[i]
		f.want = bytes.Repeat([]byte{'n'}, f.pages*storage.PageSize)
		writeFile(t, c.K(1), f.path, bytes.Repeat([]byte{'o'}, f.pages*storage.PageSize))
	}
	settle(t, c)

	var pts []netsim.FaultPoint
	for _, puller := range []netsim.SiteID{2, 3} {
		// /four's open is duplicated; /twelve's loses its response and is
		// sent again; so is its window, and the resend is duplicated. (A
		// point that fires ends the scan of its send, so the second point
		// of a method first sees that method's second send.)
		pts = append(pts,
			netsim.FaultPoint{From: puller, To: 1, Method: "fs.pullopen", Action: netsim.FaultDupRequest},
			netsim.FaultPoint{From: puller, To: 1, Method: "fs.pullopen", Action: netsim.FaultDropResponse},
			netsim.FaultPoint{From: puller, To: 1, Method: "fs.pullpages", Action: netsim.FaultDropResponse},
			netsim.FaultPoint{From: puller, To: 1, Method: "fs.pullpages", Action: netsim.FaultDupRequest},
		)
	}
	before := c.Net.Stats()
	c.Net.EnableFaults(netsim.FaultConfig{Seed: 1, Points: pts})
	for _, f := range files {
		rewriteFile(t, c.K(1), f.path, f.want)
	}
	settle(t, c)
	c.Net.DisableFaults()
	if d := c.Net.Stats().Sub(before); d.MsgsDuped != 4 || d.MsgsDropped != 4 {
		t.Fatalf("the fault plane duplicated %d and dropped %d messages, want 4 and 4: the points missed the pulls", d.MsgsDuped, d.MsgsDropped)
	}

	for _, f := range files {
		r, err := c.K(1).Resolve(cred(), f.path)
		if err != nil {
			t.Fatal(err)
		}
		owner := map[*byte]fs.SiteID{}
		for _, site := range c.Sites() {
			bufs := committedBufs(t, c, site, r.ID, f.want)
			if len(bufs) != f.pages {
				t.Fatalf("site %d stores %d pages of %s, want %d", site, len(bufs), f.path, f.pages)
			}
			for i, buf := range bufs {
				if other, dup := owner[&buf[0]]; dup {
					t.Fatalf("%s: page %d at site %d is stored in a buffer site %d also holds", f.path, i, site, other)
				}
				owner[&buf[0]] = site
			}
		}
		if got := readFile(t, c.K(3), f.path); !bytes.Equal(got, f.want) {
			t.Fatalf("site 3 reads stale %s", f.path)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// TestPullLeavesOriginInodeAlone: the pull-open reply carries the
// origin's committed inode itself through the in-process transport, and
// the puller builds its own page table. A real pull of a 2-page file at
// two sites leaves the origin's inode the same inode, reading as it did.
func TestPullLeavesOriginInodeAlone(t *testing.T) {
	c := newCluster(t, 3)
	want := bytes.Repeat([]byte{'x'}, 2*storage.PageSize)
	writeFile(t, c.K(1), "/f", want)
	r, err := c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	origin := c.K(1).Store().Container(r.ID.FG)
	before, err := origin.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	was := before.Clone()
	settle(t, c)

	after, err := origin.GetInode(r.ID.Inode)
	if err != nil {
		t.Fatal(err)
	}
	if after != before || !reflect.DeepEqual(after, was) {
		t.Fatalf("two pulls changed the origin's committed inode:\n got %+v\nwant %+v", after, was)
	}
	if after.Size != int64(len(want)) || len(after.Pages) != 2 {
		t.Fatalf("origin stores %d bytes in %d pages, want %d in 2", after.Size, len(after.Pages), len(want))
	}
	for _, site := range []fs.SiteID{2, 3} {
		pulled, err := c.K(site).Store().Container(r.ID.FG).GetInode(r.ID.Inode)
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
		if pulled == after || !pulled.VV.Equal(after.VV) || pulled.Size != after.Size {
			t.Fatalf("site %d installed %+v (the origin has %+v)", site, pulled, after)
		}
		committedBufs(t, c, site, r.ID, want)
	}
	committedBufs(t, c, 1, r.ID, want)
}

// TestPoolReachesSteadyState: with every superseded page going back to
// the pool, whole-file rewrites of a replicated file stop asking the
// allocator for pages once the pool holds one round's worth. (Where a
// pull left the origin's page marked shared, each pulled source page
// cost the pool a buffer: 800 new pages over these 200 rounds.) A
// garbage collection may empty a sync.Pool, so the collector is held
// off for the measured rounds.
func TestPoolReachesSteadyState(t *testing.T) {
	c := newCluster(t, 3)
	data := bytes.Repeat([]byte{'a'}, 4*storage.PageSize)
	writeFile(t, c.K(1), "/f", data)
	settle(t, c)
	round := func(i int) {
		for j := range data {
			data[j] = byte('a' + i%26)
		}
		rewriteFile(t, c.K(fs.SiteID(1+i%3)), "/f", data)
		settle(t, c)
	}
	defer holdCollector()()
	for i := 0; i < 20; i++ {
		round(i)
	}
	_, _, news0 := storage.PagePoolStats()
	for i := 20; i < 220; i++ {
		round(i)
	}
	_, _, news1 := storage.PagePoolStats()
	if grew := news1 - news0; grew != 0 && !raceEnabled {
		t.Errorf("200 settled rewrites allocated %d new page buffers, want 0: a superseded page is missing the pool", grew)
	}
	for _, site := range c.Sites() {
		if got := readFile(t, c.K(site), "/f"); !bytes.Equal(got, data) {
			t.Fatalf("site %d reads stale content after the last round", site)
		}
	}
	if findings := c.Fsck(true); len(findings) != 0 {
		t.Fatalf("fsck: %v", findings)
	}
}

// pullOnce is one settled pull of a 4-page file at site 2: site 1
// rewrites the file (outside what is measured), then site 2 drains its
// propagation queue.
type pullOnce struct {
	c    *cluster.Cluster
	data []byte
	n    int
}

func newPullOnce(tb testing.TB) *pullOnce {
	c, err := cluster.New(cluster.SimpleConfig(3), cluster.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	p := &pullOnce{c: c, data: bytes.Repeat([]byte{'a'}, 4*storage.PageSize)}
	f, err := c.K(1).Create(cred(), "/f", storage.TypeRegular, 0644)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.WriteAt(p.data, 0); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	c.Settle()
	return p
}

// commit rewrites the file at site 1 and brings site 3 up to date, so
// that the one pull left queued is site 2's.
func (p *pullOnce) commit(tb testing.TB) {
	p.n++
	p.data[0] = byte(p.n)
	rewriteFile(tb, p.c.K(1), "/f", p.data)
	if n := p.c.K(3).DrainPropagation(); n != 1 {
		tb.Fatalf("site 3 completed %d pulls, want 1", n)
	}
}

func (p *pullOnce) pull(tb testing.TB) {
	if n := p.c.K(2).DrainPropagation(); n != 1 {
		tb.Fatalf("site 2 completed %d pulls, want 1", n)
	}
}

// TestPullAllocations pins what one settled 4-page pull allocates at
// the puller and, in the handler it calls, at the origin: 14
// allocations. It was 18 while the origin's handler cloned GetInode's
// copy and the puller cloned its local inode to read the version, and 15
// while the puller recorded every page it installed in a map on its
// queued task, so that a failed pull could resume. No page buffer is
// among them — what the hand-off saves is the buffer the origin's next
// write could not get back, which is TestPoolReachesSteadyState's
// business. testing.AllocsPerRun cannot leave the rewrite that sets a
// pull up out of its count, so the runs are counted by hand.
func TestPullAllocations(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("the storage assertions allocate a map of every referenced page on each free; the race detector's sync.Pool drops buffers")
	}
	p := newPullOnce(t)
	for i := 0; i < 10; i++ { // fill the pool, size the maps
		p.commit(t)
		p.pull(t)
	}
	defer holdCollector()()
	const runs = 50
	var mallocs uint64
	for i := 0; i < runs; i++ {
		p.commit(t)
		mallocs += countMallocs(func() { p.pull(t) })
	}
	// Whole allocations per run, as testing.AllocsPerRun reports them: a
	// stray one in fifty runs (a map that grows) is not the pull's.
	if got := mallocs / runs; got > 14 {
		t.Errorf("one settled 4-page pull makes %d allocations, want at most 14", got)
	}
}

// TestOpenAllocations pins what an open costs the allocator now that it
// copies no inode it only reads, makes a dirty-page map for a writer
// alone, and leaves no record of a reader at the storage site: open +
// ReadAll + close of a local 4-page file by low-level name allocates the
// handle and the result buffer on the unsynchronized path, and so does a
// read open under a read delegation (2, was 9 when every read open took
// the paper's path). Under the paper's protocol the open and close
// messages come besides (6, was 9 with the SS's reader record). A modify
// open and its close make 10 (was 13 with the SS's copied page set): the
// two in-core inodes (US and SS) and the two dirty maps are a writer's to
// have. Where the CSS is another site the counts are the same (they were
// 3 higher): the open and the close each cross as an at-most-once call,
// and from a full dedup window such a call reuses the entry it evicts.
// One P and no collector, as in TestPullAllocations: the pages ReadAll
// copies out of come from the page pool.
func TestOpenAllocations(t *testing.T) {
	if invariant.Enabled || raceEnabled {
		t.Skip("the storage assertions allocate on their own account; the race detector's sync.Pool drops buffers")
	}
	data := bytes.Repeat([]byte{'x'}, 4*storage.PageSize)
	defer holdCollector()()
	for _, regime := range []struct {
		name string
		ft   fs.Features
		rows []openAllocRow
	}{
		{"leases", fs.Features{}, []openAllocRow{
			{"internal open + ReadAll + close", 1, fs.ModeInternal, 2},
			{"read open + ReadAll + close at the CSS", 1, fs.ModeRead, 2},
			{"modify open + close at the CSS", 1, fs.ModeModify, 10},
			{"read open + ReadAll + close through a remote CSS", 2, fs.ModeRead, 2},
			{"modify open + close through a remote CSS", 2, fs.ModeModify, 10},
		}},
		{"paper", fs.Features{NoDelegations: true}, []openAllocRow{
			{"read open + ReadAll + close at the CSS", 1, fs.ModeRead, 6},
			{"read open + ReadAll + close through a remote CSS", 2, fs.ModeRead, 6},
		}},
	} {
		c := featureCluster(t, 2, regime.ft)
		writeFile(t, c.K(1), "/f", data)
		settle(t, c)
		r, err := c.K(1).Resolve(cred(), "/f")
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range regime.rows {
			run := func() {
				f, err := c.K(row.site).OpenID(r.ID, row.mode)
				if err != nil {
					t.Fatal(err)
				}
				if row.mode != fs.ModeModify {
					if got, err := f.ReadAll(); err != nil || len(got) != len(data) {
						t.Fatalf("ReadAll = %d bytes, %v", len(got), err)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			// Size the kernels' maps and fill the CSS's dedup window
			// (1,024 requests of one caller).
			for i := 0; i < 1100; i++ {
				run()
			}
			if got := testing.AllocsPerRun(200, run); got > row.max {
				t.Errorf("%s: %s makes %v allocations, want at most %v", regime.name, row.what, got, row.max)
			}
		}
	}
}

// openAllocRow is one of TestOpenAllocations' pins: an open in mode at
// site and its close, with a ReadAll between unless mode is ModeModify.
type openAllocRow struct {
	what string
	site fs.SiteID
	mode fs.OpenMode
	max  float64
}

// BenchmarkPullFile is the per-pull figure with a one-line reproduction
// (make bench): a 4-page file on 3 replicas, rewritten whole at site 1
// with the timer stopped, pulled at site 2 with it running. newpages/op
// is what a round (the rewrite and both pulls) takes from the allocator
// because the pool could not supply it: 4 where a pull left the
// origin's pages marked shared, 0 with the hand-off.
func BenchmarkPullFile(b *testing.B) {
	p := newPullOnce(b)
	p.commit(b)
	p.pull(b)
	_, _, news0 := storage.PagePoolStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p.commit(b)
		b.StartTimer()
		p.pull(b)
	}
	_, _, news1 := storage.PagePoolStats()
	b.ReportMetric(float64(news1-news0)/float64(b.N), "newpages/op")
}
