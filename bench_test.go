package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fs"
	"repro/internal/proc"
	"repro/internal/recon"
	"repro/internal/storage"
	"repro/internal/vclock"
	"repro/locus"
)

// The benchmarks below regenerate the paper's evaluation artifacts:
// one benchmark per experiment of DESIGN.md's per-experiment index
// (E1..E10), reporting wall time plus the simulated-cost metrics the
// paper reasons in (messages/op, sim-CPU-us/op). The companion
// experiment *tables* — the exact rows the paper reports — come from
// internal/bench (run `go run ./cmd/locus-bench` or the
// TestExperimentTables test).

func mustSimple(b *testing.B, n int) *locus.Cluster {
	b.Helper()
	c, err := locus.Simple(n)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	return c
}

func mustWrite(b *testing.B, se *locus.Session, path string, data []byte) {
	b.Helper()
	if err := se.WriteFile(path, data); err != nil {
		b.Fatal(err)
	}
}

func pageOf(ch byte) []byte {
	p := make([]byte, storage.PageSize)
	for i := range p {
		p[i] = ch
	}
	return p
}

// reportSim attaches simulated-cost metrics to a benchmark.
func reportSim(b *testing.B, c *locus.Cluster, before, ops int64) {
	d := c.Stats()
	b.ReportMetric(float64(d.Msgs-before)/float64(ops), "msgs/op")
}

// BenchmarkE1_RemoteSyscallFlow measures the Figure-1 flow: a complete
// open/read/close of a remotely stored file.
func BenchmarkE1_RemoteSyscallFlow(b *testing.B) {
	c := mustSimple(b, 2)
	u1 := c.Site(1).Login("u")
	mustWrite(b, u1, "/f", pageOf('x'))
	if err := c.Site(1).FS.SetReplication(u1.Cred(), "/f", []locus.SiteID{1}); err != nil {
		b.Fatal(err)
	}
	c.Settle()
	r, err := c.Site(2).FS.Resolve(u1.Cred(), "/f")
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, storage.PageSize)
	start := c.Stats().Msgs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := c.Site(2).FS.OpenID(r.ID, fs.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSim(b, c, start, int64(b.N))
}

// BenchmarkE2_ProtocolMessageCounts measures the fully general open
// protocol (US, CSS, SS all distinct): 4 messages for the open.
func BenchmarkE2_ProtocolMessageCounts(b *testing.B) {
	c := mustSimple(b, 3)
	u1 := c.Site(1).Login("u")
	mustWrite(b, u1, "/a", pageOf('a'))
	if err := c.Site(1).FS.SetReplication(u1.Cred(), "/a", []locus.SiteID{3}); err != nil {
		b.Fatal(err)
	}
	c.Settle()
	r, err := c.Site(1).FS.Resolve(u1.Cred(), "/a")
	if err != nil {
		b.Fatal(err)
	}
	start := c.Stats().Msgs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := c.Site(2).FS.OpenID(r.ID, fs.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSim(b, c, start, int64(b.N)) // expect 8: open(4) + close(4)
}

// BenchmarkE3_LocalVsRemoteAccess compares page-read cost when the
// storage site is local vs remote (the paper's 2x CPU claim).
func BenchmarkE3_LocalVsRemoteAccess(b *testing.B) {
	for _, mode := range []string{"local", "remote"} {
		b.Run(mode, func(b *testing.B) {
			c := mustSimple(b, 2)
			u1 := c.Site(1).Login("u")
			mustWrite(b, u1, "/f", pageOf('x'))
			if err := c.Site(1).FS.SetReplication(u1.Cred(), "/f", []locus.SiteID{1}); err != nil {
				b.Fatal(err)
			}
			c.Settle()
			us := locus.SiteID(1)
			if mode == "remote" {
				us = 2
			}
			r, err := c.Site(us).FS.Resolve(u1.Cred(), "/f")
			if err != nil {
				b.Fatal(err)
			}
			f, err := c.Site(us).FS.OpenID(r.ID, fs.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close() //nolint:errcheck
			buf := make([]byte, storage.PageSize)
			startCPU := c.Stats().CPUUs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.ReadAt(buf, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(c.Stats().CPUUs-startCPU)/float64(b.N), "simCPUus/op")
		})
	}
}

// BenchmarkE4_CleanupCycle measures one partition/cleanup/merge cycle
// with open files and an active transaction to clean up.
func BenchmarkE4_CleanupCycle(b *testing.B) {
	c := mustSimple(b, 4)
	u1 := c.Site(1).Login("u")
	mustWrite(b, u1, "/f", []byte("x"))
	c.Settle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := c.Site(2).Login("u").Open("/f", fs.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		c.Partition([]locus.SiteID{1, 2}, []locus.SiteID{3, 4})
		r.Close() //nolint:errcheck
		if _, err := c.Merge(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5_ReconfigurationScaling runs the partition+merge protocol
// pair at several network sizes (sub-benchmark per size).
func BenchmarkE5_ReconfigurationScaling(b *testing.B) {
	for _, n := range []int{4, 8, 17, 32} {
		b.Run(fmt.Sprintf("sites-%d", n), func(b *testing.B) {
			c := mustSimple(b, n)
			var a2, b2 []locus.SiteID
			for i := 1; i <= n; i++ {
				if i <= n/2 {
					a2 = append(a2, locus.SiteID(i))
				} else {
					b2 = append(b2, locus.SiteID(i))
				}
			}
			start := c.Stats().Msgs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Network().PartitionGroups(a2, b2)
				c.Site(a2[0]).Topo.RunPartitionProtocol()
				c.Site(b2[0]).Topo.RunPartitionProtocol()
				c.Network().HealAll()
				if _, err := c.Site(a2[0]).Topo.RunMergeProtocol(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			reportSim(b, c, start, int64(b.N))
		})
	}
}

// BenchmarkE6_DirectoryMerge reconciles a root directory with 2×16
// divergent entries per iteration.
func BenchmarkE6_DirectoryMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := locus.Simple(2)
		if err != nil {
			b.Fatal(err)
		}
		a := c.Site(1).Login("u")
		bb := c.Site(2).Login("u")
		c.Partition([]locus.SiteID{1}, []locus.SiteID{2})
		for j := 0; j < 16; j++ {
			mustWrite(b, a, fmt.Sprintf("/a%02d", j), []byte("x"))
			mustWrite(b, bb, fmt.Sprintf("/b%02d", j), []byte("y"))
		}
		b.StartTimer()
		if _, err := c.Merge(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

// BenchmarkE7_ReplicationSweep measures update+propagation cost per
// replication degree.
func BenchmarkE7_ReplicationSweep(b *testing.B) {
	for _, copies := range []int{1, 2, 4, 6} {
		b.Run(fmt.Sprintf("copies-%d", copies), func(b *testing.B) {
			c := mustSimple(b, 6)
			u1 := c.Site(1).Login("u")
			mustWrite(b, u1, "/f", pageOf('r'))
			var sites []locus.SiteID
			for i := 1; i <= copies; i++ {
				sites = append(sites, locus.SiteID(i))
			}
			if err := c.Site(1).FS.SetReplication(u1.Cred(), "/f", sites); err != nil {
				b.Fatal(err)
			}
			c.Settle()
			r, err := c.Site(1).FS.Resolve(u1.Cred(), "/f")
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
				if _, err := w.WriteAt(pageOf(byte('a'+i%20)), 0); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				c.Settle()
			}
			b.StopTimer()
			reportSim(b, c, start, int64(b.N))
		})
	}
}

// BenchmarkE8_TokenThrash measures the shared-descriptor token flip
// cost: alternating reads from two sites.
func BenchmarkE8_TokenThrash(b *testing.B) {
	c := mustSimple(b, 2)
	u1 := c.Site(1).Login("u")
	mustWrite(b, u1, "/log", make([]byte, 1<<20))
	c.Settle()
	p1 := c.Site(1).Proc.InitProcess(u1.Cred())
	p2 := c.Site(2).Proc.InitProcess(c.Site(2).Login("u").Cred())
	fd1, _, err := c.Site(1).Proc.OpenShared(p1, "/log", fs.ModeRead)
	if err != nil {
		b.Fatal(err)
	}
	home, id := fd1.HomeID()
	fd2, _, err := c.Site(2).Proc.AttachShared(p2, home, id, "/log", fs.ModeRead)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	start := c.Stats().Msgs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fd1.Read(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := fd2.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportSim(b, c, start, int64(2*b.N))
}

// BenchmarkE9_MailboxMerge reconciles a mailbox with 2×8 partitioned
// deliveries per iteration.
func BenchmarkE9_MailboxMerge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := locus.Simple(2)
		if err != nil {
			b.Fatal(err)
		}
		ra := recon.New(c.Site(1).FS)
		rb := recon.New(c.Site(2).FS)
		if err := ra.DeliverMail("bob", "seed", "seed"); err != nil {
			b.Fatal(err)
		}
		c.Settle()
		c.Partition([]locus.SiteID{1}, []locus.SiteID{2})
		for j := 0; j < 8; j++ {
			ra.DeliverMail("bob", "a", "a") //nolint:errcheck
			rb.DeliverMail("bob", "b", "b") //nolint:errcheck
		}
		b.StartTimer()
		if _, err := c.Merge(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
}

// BenchmarkE10_LocalOverhead compares the local LOCUS open/read/close
// path against the bare storage substrate.
func BenchmarkE10_LocalOverhead(b *testing.B) {
	b.Run("locus-local", func(b *testing.B) {
		c := mustSimple(b, 1)
		u := c.Site(1).Login("u")
		mustWrite(b, u, "/f", pageOf('x'))
		r, err := c.Site(1).FS.Resolve(u.Cred(), "/f")
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, storage.PageSize)
		startCPU := c.Stats().CPUUs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := c.Site(1).FS.OpenID(r.ID, fs.ModeRead)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := f.ReadAt(buf, 0); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.Stats().CPUUs-startCPU)/float64(b.N), "simCPUus/op")
	})
	b.Run("bare-local-fs", func(b *testing.B) {
		cont := storage.MustContainer(1, 1, 1, 1000, nil, storage.Costs{})
		num, _ := cont.AllocInode()
		pp, _ := cont.WritePage(pageOf('x'))
		if err := cont.CommitInode(&storage.Inode{Num: num, Size: storage.PageSize,
			Pages: []storage.PhysPage{pp}, VV: vclock.New()}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cont.GetInode(num); err != nil {
				b.Fatal(err)
			}
			if _, err := cont.ReadLogicalPage(num, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11_SequentialRemoteScan measures the 16-page sequential
// remote read under the three cache regimes of the E11 table.
func BenchmarkE11_SequentialRemoteScan(b *testing.B) {
	setup := func(b *testing.B) (*locus.Cluster, *fs.Kernel, storage.FileID) {
		b.Helper()
		c := mustSimple(b, 2)
		u1 := c.Site(1).Login("u")
		mustWrite(b, u1, "/seq", make([]byte, 16*storage.PageSize))
		if err := c.Site(1).FS.SetReplication(u1.Cred(), "/seq", []fs.SiteID{1}); err != nil {
			b.Fatal(err)
		}
		c.Settle()
		r, err := c.Site(1).FS.Resolve(u1.Cred(), "/seq")
		if err != nil {
			b.Fatal(err)
		}
		return c, c.Site(2).FS, r.ID
	}
	scan := func(b *testing.B, k *fs.Kernel, id storage.FileID, ft fs.Features) {
		b.Helper()
		k.SetFeatures(ft)
		f, err := k.OpenID(id, fs.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAll(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("no-cache", func(b *testing.B) {
		c, k, id := setup(b)
		start := c.Stats().Msgs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(b, k, id, fs.Features{NoPageCache: true})
		}
		b.StopTimer()
		reportSim(b, c, start, int64(b.N))
	})
	b.Run("cold-cache-readahead", func(b *testing.B) {
		c, k, id := setup(b)
		start := c.Stats().Msgs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			k.SetFeatures(fs.Features{NoPageCache: true}) // flush so every iteration starts cold
			b.StartTimer()
			scan(b, k, id, fs.Features{Readahead: true})
		}
		b.StopTimer()
		reportSim(b, c, start, int64(b.N))
	})
	b.Run("warm-cache", func(b *testing.B) {
		c, k, id := setup(b)
		scan(b, k, id, fs.Features{Readahead: true}) // warm the using-site cache
		start := c.Stats().Msgs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scan(b, k, id, fs.Features{})
		}
		b.StopTimer()
		reportSim(b, c, start, int64(b.N))
	})
}

// BenchmarkE14_HotFileOpenStorm measures the repeat open+read+close
// cycle of a hot remotely stored file with and without the lease/intent
// layer: without leases every cycle pays the CSS round trip; under a
// read delegation every cycle after the first is served site-locally
// with zero wire messages.
func BenchmarkE14_HotFileOpenStorm(b *testing.B) {
	setup := func(b *testing.B, leases bool) (*locus.Cluster, *fs.Kernel, storage.FileID) {
		b.Helper()
		c := mustSimple(b, 3)
		c.SetFeatures(fs.Features{Leases: leases})
		u := c.Site(1).Login("u")
		mustWrite(b, u, "/hot", pageOf('h'))
		if err := c.Site(1).FS.SetReplication(u.Cred(), "/hot", []fs.SiteID{1}); err != nil {
			b.Fatal(err)
		}
		c.Settle()
		r, err := c.Site(1).FS.Resolve(u.Cred(), "/hot")
		if err != nil {
			b.Fatal(err)
		}
		return c, c.Site(2).FS, r.ID
	}
	cycle := func(b *testing.B, k *fs.Kernel, id storage.FileID, buf []byte) {
		b.Helper()
		f, err := k.OpenID(id, fs.ModeRead)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, leases := range []bool{false, true} {
		name := "no-leases"
		if leases {
			name = "delegated"
		}
		b.Run(name, func(b *testing.B) {
			c, k, id := setup(b, leases)
			buf := make([]byte, storage.PageSize)
			cycle(b, k, id, buf) // first open: grants the delegation
			start := c.Stats().Msgs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle(b, k, id, buf)
			}
			b.StopTimer()
			reportSim(b, c, start, int64(b.N))
		})
	}
}

// TestExperimentTables runs the experiment suite and asserts the
// headline shapes the paper reports. E16's registry entry is the full
// million-op workload (run by locus-bench/benchdiff, not here); the
// test exercises the same engine and configuration through
// bench.E16Sized at a small op budget, including the byte-identical
// determinism the full run relies on.
func TestExperimentTables(t *testing.T) {
	exps := bench.Experiments()
	if len(exps) != 16 {
		t.Fatalf("expected 16 experiments in the registry, got %d", len(exps))
	}
	var tables []*bench.Table
	for _, e := range exps {
		if e.ID == "E16" {
			continue // sized variant asserted below
		}
		tables = append(tables, e.Run())
	}
	byID := map[string]*bench.Table{}
	for _, tb := range tables {
		byID[tb.ID] = tb
	}

	// E2: the protocol message counts match the paper exactly.
	for _, row := range byID["E2"].Rows {
		op, got, want := row[0], row[2], row[3]
		if strings.Contains(want, "+") {
			continue // commit row: count depends on replica set
		}
		if got != want {
			t.Errorf("E2 %s (%s): %s messages, paper says %s", op, row[1], got, want)
		}
	}

	// E3: remote page ≈ 2× local (allow 1.5–3×), remote open ≫ local.
	e3 := byID["E3"]
	pageRatio := parseRatio(t, e3.Rows[0][3])
	if pageRatio < 1.5 || pageRatio > 3.0 {
		t.Errorf("E3 page ratio %.2f outside [1.5,3.0] (paper ≈2x)", pageRatio)
	}
	openRatio := parseRatio(t, e3.Rows[1][3])
	if openRatio < 3 {
		t.Errorf("E3 open ratio %.2f: remote open should be significantly more", openRatio)
	}

	// E4: every row observes the paper's action.
	for _, row := range byID["E4"].Rows {
		if strings.Contains(row[2], "no action") || strings.Contains(row[2], "no error") ||
			strings.Contains(row[2], "still active") || strings.Contains(row[2], "lost") && !strings.Contains(row[0], "lost") {
			t.Errorf("E4 %q: observed %q", row[0], row[2])
		}
	}

	// E5: every size converges, and message cost grows with N.
	var prevPart int64 = -1
	for _, row := range byID["E5"].Rows {
		if row[4] != "true" {
			t.Errorf("E5 %s sites: did not converge", row[0])
		}
		p, _ := strconv.ParseInt(row[2], 10, 64)
		if p < prevPart {
			t.Errorf("E5: partition messages decreased with size: %v", row)
		}
		prevPart = p
	}

	// E7: read availability jumps to 6/6 once each half holds a copy
	// (copies >= 4 under a 3/3 split), and update cost grows with
	// copies.
	e7 := byID["E7"]
	if e7.Rows[0][3] != "3/6 sites" {
		t.Errorf("E7 copies=1 read availability = %s, want 3/6", e7.Rows[0][3])
	}
	if e7.Rows[5][3] != "6/6 sites" {
		t.Errorf("E7 copies=6 read availability = %s, want 6/6", e7.Rows[5][3])
	}
	if e7.Rows[0][4] != "1/2 partitions" || e7.Rows[5][4] != "2/2 partitions" {
		t.Errorf("E7 update availability: %v / %v", e7.Rows[0][4], e7.Rows[5][4])
	}

	// E8: thrash costs dramatically more messages than batching.
	e8 := byID["E8"]
	thrash, _ := strconv.ParseFloat(e8.Rows[0][1], 64)
	batch, _ := strconv.ParseFloat(e8.Rows[1][1], 64)
	if thrash < 10*batch {
		t.Errorf("E8 thrash %.2f vs batch %.2f msgs/op: expected >10x gap", thrash, batch)
	}

	// E9: both mailbox formats converge to 10 messages.
	for _, row := range byID["E9"].Rows {
		if !strings.HasPrefix(row[3], "10") {
			t.Errorf("E9 %s: after merge %q, want 10", row[0], row[3])
		}
	}

	// E10: local overhead within 25% of the bare filesystem.
	e10 := byID["E10"]
	lc, _ := strconv.ParseInt(e10.Rows[0][1], 10, 64)
	bc, _ := strconv.ParseInt(e10.Rows[1][1], 10, 64)
	if float64(lc) > 1.25*float64(bc) {
		t.Errorf("E10: LOCUS local %d vs bare %d CPU us (paper: ≈equal)", lc, bc)
	}

	// E11: the using-site cache + streaming readahead cut the 16-page
	// sequential scan's mRead traffic by at least 2x cold, and the warm
	// re-read needs zero network reads.
	e11 := byID["E11"]
	baseReads, _ := strconv.ParseInt(e11.Rows[0][2], 10, 64)
	coldReads, _ := strconv.ParseInt(e11.Rows[1][2], 10, 64)
	warmReads, _ := strconv.ParseInt(e11.Rows[2][2], 10, 64)
	if baseReads != 32 {
		t.Errorf("E11 baseline = %d fs.read msgs, want 32 (2 per page)", baseReads)
	}
	if coldReads == 0 || baseReads < 2*coldReads {
		t.Errorf("E11 cold readahead %d -> %d fs.read msgs: want >= 2x reduction", baseReads, coldReads)
	}
	if warmReads != 0 {
		t.Errorf("E11 warm re-read = %d fs.read msgs, want 0 (US cache)", warmReads)
	}

	// E12: the at-most-once RPC layer absorbs message loss below the
	// application — zero operation-level retries at every drop rate —
	// and 5% loss costs well under 2x the lossless message bill.
	e12 := byID["E12"]
	if len(e12.Rows) != 3 {
		t.Fatalf("E12: %d rows, want 3 (drop rates)", len(e12.Rows))
	}
	for _, row := range e12.Rows {
		if row[2] != "0" {
			t.Errorf("E12 drop=%s: %s operation-level retries leaked past the RPC layer", row[0], row[2])
		}
	}
	lossless, _ := strconv.ParseFloat(e12.Rows[0][1], 64)
	lossy, _ := strconv.ParseFloat(e12.Rows[2][1], 64)
	if lossless <= 0 || lossy < lossless || lossy > 2*lossless {
		t.Errorf("E12 msgs/op %.1f (0%%) -> %.1f (5%%): want modest growth under 2x", lossless, lossy)
	}
	dropped, _ := strconv.ParseInt(e12.Rows[2][3], 10, 64)
	if dropped == 0 {
		t.Errorf("E12 drop=%s injected no faults; the fault plane never fired", e12.Rows[2][0])
	}

	// E13: bulk pipelined propagation must bring the 2 stale replicas
	// of the 32-page file current with ≥4x fewer messages than the
	// serial per-page pull.
	e13 := byID["E13"]
	if len(e13.Rows) != 2 {
		t.Fatalf("E13: %d rows, want 2 (regimes)", len(e13.Rows))
	}
	serialMsgs, _ := strconv.ParseInt(e13.Rows[0][2], 10, 64)
	bulkMsgs, _ := strconv.ParseInt(e13.Rows[1][2], 10, 64)
	if serialMsgs != 2*66 {
		t.Errorf("E13 serial pull = %d msgs, want 132 (2 replicas x (1+32) exchanges): the ablation no longer reproduces the per-page protocol", serialMsgs)
	}
	if bulkMsgs == 0 || serialMsgs < 4*bulkMsgs {
		t.Errorf("E13 bulk = %d msgs vs serial %d: want >= 4x fewer", bulkMsgs, serialMsgs)
	}
	serialWins := e13.Rows[0][4]
	bulkPages, _ := strconv.ParseInt(e13.Rows[1][5], 10, 64)
	if serialWins != "0" || bulkPages != 2*32 {
		t.Errorf("E13 window counters: serial windows=%s (want 0), bulk pages=%d (want 64)", serialWins, bulkPages)
	}

	// E14: under read delegations the 28 reopens of the hot file must
	// cost exactly zero wire messages (the ablation pays per open), the
	// four reader sites must each have been granted a lease, and the
	// writer transition must recall all four delegations in exactly one
	// batched revoke round while closing more cheaply than the legacy
	// close protocol.
	e14 := byID["E14"]
	if len(e14.Rows) != 2 {
		t.Fatalf("E14: %d rows, want 2 (regimes)", len(e14.Rows))
	}
	offRow, onRow := e14.Rows[0], e14.Rows[1]
	if onRow[2] != "0" {
		t.Errorf("E14 delegated reopens = %s msgs, want 0 (the lease fast path regressed)", onRow[2])
	}
	offReopen, _ := strconv.ParseInt(offRow[2], 10, 64)
	if offReopen == 0 {
		t.Errorf("E14 ablation reopens = 0 msgs: the no-lease regime is not exercising the wire protocol")
	}
	if onRow[4] != "4" {
		t.Errorf("E14 leases granted = %s, want 4 (one read delegation per reader site)", onRow[4])
	}
	if onRow[6] != "1" {
		t.Errorf("E14 revoke rounds = %s, want 1 (batched recall per writer transition)", onRow[6])
	}
	onClose, _ := strconv.ParseInt(onRow[7], 10, 64)
	offClose, _ := strconv.ParseInt(offRow[7], 10, 64)
	if onClose >= offClose {
		t.Errorf("E14 leased writer commit+close = %d msgs vs legacy %d: the writer lease no longer skips the wire close", onClose, offClose)
	}

	// E15: killing the executing site must fire every §5.6 failure
	// action — orphan notices for the processes whose parents died,
	// exactly one pipe endpoint torn down, the partitioned transaction
	// aborted, all three signals to dead processes queued then expired
	// at merge, and the cross-partition signal to a live process
	// queued then replayed.
	e15 := byID["E15"]
	if len(e15.Rows) != 5 {
		t.Fatalf("E15: %d rows, want 5 (stages)", len(e15.Rows))
	}
	e15At := func(row, col int) int64 {
		v, err := strconv.ParseInt(e15.Rows[row][col], 10, 64)
		if err != nil {
			t.Fatalf("E15 row %d col %d = %q: %v", row, col, e15.Rows[row][col], err)
		}
		return v
	}
	if n := e15At(1, 2); n != 3 {
		t.Errorf("E15 crash stage delivered %d orphan notices, want 3 (one per orphaned sitter)", n)
	}
	if n := e15At(1, 3); n != 1 {
		t.Errorf("E15 crash stage tore down %d pipe endpoints, want 1 (the dead writer end)", n)
	}
	if n := e15At(1, 4); n != 1 {
		t.Errorf("E15 crash stage aborted %d transactions, want 1 (the lock on the dead site's file)", n)
	}
	if q, x := e15At(2, 5), e15At(3, 7); q != 3 || x != 3 {
		t.Errorf("E15 dead-target signals: %d queued, %d expired at merge — want 3 and 3", q, x)
	}
	if q, r := e15At(4, 5), e15At(4, 6); q != 1 || r != 1 {
		t.Errorf("E15 live-target signal: %d queued, %d replayed at merge — want 1 and 1", q, r)
	}
	for _, note := range e15.Notes {
		if strings.Contains(note, "eof=false") {
			t.Errorf("E15: the pipe reader never reached io.EOF: %s", note)
		}
	}

	// E16 (sized): the workload engine behind the million-op registry
	// entry, at a small op budget but the full 2,100-actor fleet. The
	// table must report every pinned metric with zero errors, and two
	// runs with the same seed must produce byte-identical rows — the
	// property the full run's BENCH_locus.json counters depend on.
	e16 := bench.E16Sized(300)
	e16Vals := map[string]string{}
	for _, row := range e16.Rows {
		e16Vals[row[0]] = row[1]
	}
	if e16Vals["ops"] != "900" || e16Vals["errors"] != "0" {
		t.Errorf("E16 sized: ops=%s errors=%s, want 900/0", e16Vals["ops"], e16Vals["errors"])
	}
	for _, metric := range []string{"sim_cost_us", "ops/sim-sec", "op read", "op write",
		"op build", "op readdir", "op stat", "tenant scan", "tenant edit", "tenant build",
		"lat_us p50", "lat_us p95", "lat_us p99", "lat_us max", "msgs", "msgs/op"} {
		if e16Vals[metric] == "" {
			t.Errorf("E16 sized: metric %q missing from table", metric)
		}
	}
	for _, tenant := range []string{"scan", "edit", "build"} {
		if got := e16Vals["tenant "+tenant]; !strings.HasPrefix(got, "300 ops") {
			t.Errorf("E16 sized: tenant %s = %q, want 300 ops", tenant, got)
		}
	}
	e16again := bench.E16Sized(300)
	if fmt.Sprint(e16.Rows) != fmt.Sprint(e16again.Rows) {
		t.Errorf("E16 sized is nondeterministic across runs with the same seed:\n%v\nvs\n%v",
			e16.Rows, e16again.Rows)
	}
}

// TestBenchSmoke is the CI smoke entry point: it runs the cache/
// readahead experiment end to end with metrics aggregation and checks
// the BENCH_locus.json encoding round-trips.
func TestBenchSmoke(t *testing.T) {
	tbl, res := bench.RunWithMetrics(bench.Experiment{ID: "E11", Run: bench.E11})
	if tbl == nil || len(tbl.Rows) != 3 {
		t.Fatalf("E11 table malformed: %+v", tbl)
	}
	if res.ID != "E11" || res.Msgs == 0 || res.Bytes == 0 || res.CPUUs == 0 {
		t.Fatalf("metrics not aggregated: %+v", res)
	}
	if res.CacheHits == 0 || res.CacheHitRate <= 0 || res.RAPagesSent == 0 {
		t.Fatalf("cache/readahead counters missing: %+v", res)
	}
	tbl14, res14 := bench.RunWithMetrics(bench.Experiment{ID: "E14", Run: bench.E14})
	if tbl14 == nil || len(tbl14.Rows) != 2 {
		t.Fatalf("E14 table malformed: %+v", tbl14)
	}
	if res14.LeasesGranted == 0 || res14.LeasesRevoked == 0 || res14.BatchedRevokes == 0 {
		t.Fatalf("lease counters not aggregated: %+v", res14)
	}
	tbl15, res15 := bench.RunWithMetrics(bench.Experiment{ID: "E15", Run: bench.E15})
	if tbl15 == nil || len(tbl15.Rows) != 5 {
		t.Fatalf("E15 table malformed: %+v", tbl15)
	}
	if res15.OrphanNotices == 0 || res15.PipeTeardowns == 0 || res15.TxnPartitionAborts == 0 ||
		res15.SignalsQueued == 0 || res15.SignalsReplayed == 0 || res15.SignalsExpired == 0 {
		t.Fatalf("§5.6 failure-action counters not aggregated: %+v", res15)
	}
	var buf bytes.Buffer
	if err := bench.WriteJSON(&buf, []bench.Result{res}); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema  string         `json:"schema"`
		Results []bench.Result `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("BENCH_locus.json output is not valid JSON: %v", err)
	}
	if decoded.Schema != "locus-bench/v1" || len(decoded.Results) != 1 || decoded.Results[0] != res {
		t.Fatalf("JSON round-trip mismatch: %+v", decoded)
	}
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio %q: %v", s, err)
	}
	return v
}

// TestExampleProgramsCompile ensures the examples keep building by
// exercising their core flows through the public API (quick versions).
func TestExampleFlows(t *testing.T) {
	c, err := locus.Simple(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := c.Site(1).Login("u")
	if err := s.WriteFile("/x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	c.Site(2).Proc.Register("noop", func(*proc.Ctx) int { return 0 })
	if err := s.WriteFile("/noop", []byte("go:noop\n")); err != nil {
		t.Fatal(err)
	}
	c.Settle()
	s.SetExecSite(2)
	pid, err := s.Run("/noop")
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Wait(pid); st.Code != 0 {
		t.Fatalf("status %+v", st)
	}
}
