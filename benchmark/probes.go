package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/format"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Layers below fs cannot be wrapped from outside, so their numbers are
// unit probes run after the traced pass, on inputs taken from the
// workload's final state.

// probeMin is how long each probe iterates at least.
const probeMin = 200 * time.Millisecond

// nsPerCall times f in batches that double until one lasts probeMin
// and returns that batch's mean.
func nsPerCall(f func()) float64 {
	for n := 64; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d >= probeMin {
			return float64(d.Nanoseconds()) / float64(n)
		}
	}
}

func allocsPerCall(f func()) float64 { return testing.AllocsPerRun(200, f) }

// Sinks keep probe results alive so the compiler cannot drop the
// calls; they are typed so that storing a result allocates nothing.
var (
	sinkAny   any
	sinkErr   error
	sinkInode *storage.Inode
	sinkVV    vclock.VV
	sinkOrd   vclock.Ordering
	sinkSites []vclock.SiteID
	sinkBytes []byte
	sinkDir   *format.Directory
)

// pagePayload is a request that reports a page's worth of wire bytes.
type pagePayload struct{ data []byte }

func (p *pagePayload) WireSize() int { return len(p.data) }

// probe runs every unit probe and stores the results by metric name.
func (e *env) probe(p *pass) error {
	p.probes = map[string]float64{}
	if err := e.probeFS(p.probes); err != nil {
		return err
	}
	if err := probeNetsim(p.probes); err != nil {
		return err
	}
	vv, err := e.hottestVV()
	if err != nil {
		return err
	}
	if err := probeStorage(p.probes, e.w.pages, vv); err != nil {
		return err
	}
	probeVclock(p.probes, vv)
	return e.probeFormat(p.probes)
}

func (e *env) hottestVV() (vclock.VV, error) {
	ino, err := e.sess[0].Stat(e.paths[0])
	if err != nil {
		return nil, fmt.Errorf("probe: stat %s: %w", e.paths[0], err)
	}
	return ino.VV, nil
}

// probeFS times a direct Kernel.Resolve of the hottest path at the
// first session's site.
func (e *env) probeFS(out map[string]float64) error {
	s := e.sess[0]
	k, cred := s.Site().FS, s.Cred()
	if _, err := k.Resolve(cred, e.paths[0]); err != nil {
		return fmt.Errorf("probe: resolve %s: %w", e.paths[0], err)
	}
	out["fs.resolve.wall_us"] = nsPerCall(func() {
		sinkAny, _ = k.Resolve(cred, e.paths[0])
	}) / 1e3
	e.nw.Quiesce()
	return nil
}

// probeNetsim measures the transport alone: a fresh 2-site network
// whose handler does nothing.
func probeNetsim(out map[string]float64) error {
	nw := netsim.New(netsim.DefaultCosts())
	defer nw.Close()
	a, b := nw.AddSite(1), nw.AddSite(2)
	b.Handle("probe.nop", func(netsim.SiteID, any) (any, error) { return nil, nil })
	page := &pagePayload{data: make([]byte, storage.PageSize)}
	// A failed exchange leaves its error in sinkErr, checked once the
	// probes are done.
	sinkErr = nil
	call := func() {
		if _, err := a.Call(2, "probe.nop", nil); err != nil {
			sinkErr = err
		}
	}
	callPage := func() {
		if _, err := a.Call(2, "probe.nop", page); err != nil {
			sinkErr = err
		}
	}
	out["netsim.call_rtt_ns"] = nsPerCall(call)
	out["netsim.call_page_rtt_ns"] = nsPerCall(callPage)
	out["netsim.call_allocs"] = allocsPerCall(call)
	// Casts are one-way: drain every 256 so the receiver's queue stays
	// short, and count the drain in the cost.
	n := 0
	out["netsim.cast_ns"] = nsPerCall(func() {
		if err := a.Cast(2, "probe.nop", nil); err != nil {
			sinkErr = err
		}
		if n++; n%256 == 0 {
			nw.Quiesce()
		}
	})
	nw.Quiesce()
	if sinkErr != nil {
		return fmt.Errorf("probe: netsim exchange: %w", sinkErr)
	}
	return nil
}

// probeStorage measures a scratch container that charges nothing,
// holding one file sized as the workload's files.
func probeStorage(out map[string]float64, pages int, vv vclock.VV) error {
	c, err := storage.NewContainer(1, 1, 1, 1000, nil, storage.Costs{})
	if err != nil {
		return err
	}
	num, err := c.AllocInode()
	if err != nil {
		return err
	}
	ino := &storage.Inode{Num: num, Type: storage.TypeRegular, Size: int64(pages * storage.PageSize),
		VV: vv.Copy(), Owner: "probe", Mode: 0o644, Nlink: 1, Sites: vv.Sites()}
	data := make([]byte, storage.PageSize)
	for i := 0; i < pages; i++ {
		pp, err := c.WritePage(data)
		if err != nil {
			c.FreePages(ino.Pages...)
			return err
		}
		ino.Pages = append(ino.Pages, pp)
	}
	if err := c.CommitInode(ino); err != nil {
		return err
	}
	getInode := func() {
		sinkInode, _ = c.GetInode(num)
	}
	out["storage.get_inode_ns"] = nsPerCall(getInode)
	out["storage.get_inode_allocs"] = allocsPerCall(getInode)
	out["storage.read_page_ns"] = nsPerCall(func() {
		buf, _ := c.ReadPage(ino.Pages[0])
		storage.PutPageBuf(buf)
	})
	out["storage.write_page_ns"] = nsPerCall(func() {
		pp, _ := c.WritePage(data)
		c.FreePages(pp)
	})
	out["storage.commit_inode_ns"] = nsPerCall(func() {
		sinkErr = c.CommitInode(ino)
	})
	return nil
}

// probeVclock measures the version-vector operations on the hottest
// file's vector (its width is the replica count) against a copy that
// is one update ahead.
func probeVclock(out map[string]float64, vv vclock.VV) {
	newer := vv.Copy().Bump(1)
	out["vclock.compare_ns"] = nsPerCall(func() { sinkOrd = vv.Compare(newer) })
	out["vclock.merge_ns"] = nsPerCall(func() { sinkVV = vv.Merge(newer) })
	out["vclock.copy_ns"] = nsPerCall(func() { sinkVV = vv.Copy() })
	out["vclock.copy_allocs"] = allocsPerCall(func() { sinkVV = vv.Copy() })
	out["vclock.sites_ns"] = nsPerCall(func() { sinkSites = vv.Sites() })
	out["vclock.sites_allocs"] = allocsPerCall(func() { sinkSites = vv.Sites() })
}

// probeFormat measures the directory codec on the workload's own final
// directory bytes, read back through a Session so tombstones are
// included.
func (e *env) probeFormat(out map[string]float64) error {
	raw, err := e.sess[0].ReadFile(dirPath)
	if err != nil {
		return fmt.Errorf("probe: read %s: %w", dirPath, err)
	}
	e.nw.Quiesce()
	dir, err := format.DecodeDir(raw)
	if err != nil {
		return fmt.Errorf("probe: decode %s: %w", dirPath, err)
	}
	decode := func() {
		sinkDir, _ = format.DecodeDir(raw)
	}
	encode := func() { sinkBytes = format.EncodeDir(dir) }
	out["format.dir_entries"] = float64(len(dir.Entries))
	out["format.dir_bytes"] = float64(len(raw))
	out["format.decode_dir_us"] = nsPerCall(decode) / 1e3
	out["format.encode_dir_us"] = nsPerCall(encode) / 1e3
	out["format.decode_dir_allocs"] = allocsPerCall(decode)
	out["format.encode_dir_allocs"] = allocsPerCall(encode)
	return nil
}
