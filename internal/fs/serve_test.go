package fs_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
)

// pinCluster builds a 4-site cluster under ft with /pin, pages pages
// long, stored at sites 3 and 4 only: the CSS (1) holds no copy and
// site 2 is purely a using site. It returns /pin's name and content.
func pinCluster(t *testing.T, ft fs.Features, pages int) (*cluster.Cluster, storage.FileID, []byte) {
	t.Helper()
	c := featureCluster(t, 4, ft)
	want := bytes.Repeat([]byte{'p'}, pages*storage.PageSize)
	writeFile(t, c.K(3), "/pin", want)
	if err := c.K(3).SetReplication(cred(), "/pin", []fs.SiteID{3, 4}); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	r, err := c.K(2).Resolve(cred(), "/pin")
	if err != nil {
		t.Fatal(err)
	}
	return c, r.ID, want
}

// TestConflictMarkRefusesEveryReadOpen: once a conflict marks every copy
// of a file (§2.3.1: "normal opens fail"), no storage site serves a read
// open of it, whether or not the open would be granted a read
// delegation, and whether or not the opening site stores a copy. The CSS
// entry exists before the marks, so only the storage sites' check of
// their copies can refuse the opens.
func TestConflictMarkRefusesEveryReadOpen(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c, id, _ := pinCluster(t, ft, 1)
		if c.K(1).CSSLatest(id) == nil {
			t.Fatal("the CSS keeps no entry for /pin: the opens would rebuild it and find the conflict there")
		}
		c.K(1).MarkConflict(id, []fs.SiteID{3, 4})
		for _, s := range []fs.SiteID{2, 3} {
			if f, err := c.K(s).OpenID(id, fs.ModeRead); err == nil {
				f.Close() //nolint:errcheck
				t.Errorf("site %d: read open of a conflicted file served by site %d, want refused", s, f.SS())
			}
		}
	})
}

// TestRetiredCopyStalesItsReader: a read handle whose storage site
// retires its copy once the file moved away is failed over as §5.1 has
// it, to another copy of the same version; the move committed a new one,
// so none is left, and the handle goes stale: its next read that misses
// the page cache is ErrStale, its close succeeds, the retiring site keeps
// no copy, and fsck is clean.
func TestRetiredCopyStalesItsReader(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c, id, _ := pinCluster(t, ft, 2)
		f, err := c.K(2).OpenID(id, fs.ModeRead)
		if err != nil {
			t.Fatal(err)
		}
		if f.SS() != 3 {
			t.Fatalf("SS = %d, want 3", f.SS())
		}
		if err := c.K(1).SetReplication(cred(), "/pin", []fs.SiteID{4}); err != nil {
			t.Fatal(err)
		}
		c.Settle()
		buf := make([]byte, 16)
		if n, err := f.ReadAt(buf, 0); !errors.Is(err, fs.ErrStale) {
			t.Errorf("ReadAt after the copy was retired = %d, %v; want ErrStale", n, err)
		}
		if err := f.Close(); err != nil {
			t.Errorf("close of the stale handle: %v", err)
		}
		if c.K(3).Store().Container(id.FG).HasInode(id.Inode) {
			t.Error("site 3 still stores /pin after the move to {4}")
		}
		for _, fd := range c.Fsck(false) {
			t.Errorf("fsck: %v", fd)
		}
	})
}

// TestReadsUnderReplicaMoves: readers at sites 2 and 4 open, read and
// close /pin, whose content never changes, while site 1 moves it between
// {3, 4} and {3} and settles, each move once two reads have ended since
// the last. So site 4's copy may be retired under a read it serves, or
// under an open the CSS sent to it, which is ErrStale. Every read
// returns the whole content, or ErrStale when no copy of the handle's
// version is left, and fsck is clean at the end.
func TestReadsUnderReplicaMoves(t *testing.T) {
	const moves = 6
	c, id, want := pinCluster(t, fs.Features{}, 2)
	var stop atomic.Bool
	var reads atomic.Int64
	errs := make(chan error, 4)
	var readers sync.WaitGroup
	for _, s := range []fs.SiteID{2, 4} {
		readers.Add(1)
		go func(k *fs.Kernel) {
			defer readers.Done()
			for !stop.Load() {
				f, err := k.OpenID(id, fs.ModeRead)
				if errors.Is(err, fs.ErrStale) {
					continue // the copy the CSS chose was retired meanwhile
				}
				if err != nil {
					errs <- fmt.Errorf("site %d open: %w", k.Site(), err)
					return
				}
				data, err := f.ReadAll()
				reads.Add(1)
				if cerr := f.Close(); cerr != nil {
					errs <- fmt.Errorf("site %d close: %w", k.Site(), cerr)
					return
				}
				if err != nil && !errors.Is(err, fs.ErrStale) || err == nil && !bytes.Equal(data, want) {
					errs <- fmt.Errorf("site %d read %d bytes, %v; want the whole file or ErrStale", k.Site(), len(data), err)
					return
				}
			}
		}(c.K(s))
	}
	for i := 0; i < moves; i++ {
		for r := reads.Load(); reads.Load() < r+2 && len(errs) == 0; {
			runtime.Gosched()
		}
		sites := []fs.SiteID{3}
		if i%2 == 1 {
			sites = append(sites, 4)
		}
		if err := c.K(1).SetReplication(cred(), "/pin", sites); err != nil {
			t.Errorf("move %d to %v: %v", i, sites, err)
		}
		c.Settle()
	}
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settle(t, c)
	for _, fd := range c.Fsck(false) {
		t.Errorf("fsck: %v", fd)
	}
}

// TestRetirementWaitsForTheWriter: a move leaves the copy at the site
// that committed it, the CSS, until the listed site has pulled the new
// version, and a modify open meanwhile is served from that copy (the
// CSS stores the latest version). The copy is not retired under the
// writer's session: the page the writer left alone is still the file's
// when its close commits, the listed site pulls that version, and the
// copy goes only after.
func TestRetirementWaitsForTheWriter(t *testing.T) {
	forWriterRegimes(t, func(t *testing.T, ft fs.Features) {
		c := featureCluster(t, 3, ft) // CSS = site 1
		want := append(bytes.Repeat([]byte{'a'}, storage.PageSize), bytes.Repeat([]byte{'b'}, storage.PageSize)...)
		writeFile(t, c.K(1), "/f", want)
		if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{1, 2}); err != nil {
			t.Fatal(err)
		}
		settle(t, c)
		if err := c.K(1).SetReplication(cred(), "/f", []fs.SiteID{2}); err != nil {
			t.Fatal(err)
		}
		w, err := c.K(1).Open(cred(), "/f", fs.ModeModify)
		if err != nil {
			t.Fatal(err)
		}
		if w.SS() != 1 {
			t.Fatalf("SS = %d, want 1 (the CSS's copy, not yet retired)", w.SS())
		}
		page := bytes.Repeat([]byte{'c'}, storage.PageSize)
		if _, err := w.WriteAt(page, 0); err != nil {
			t.Fatal(err)
		}
		copy(want, page)
		c.Settle() // site 2 pulls the move; site 1's retirement waits
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		for _, s := range []fs.SiteID{1, 3} { // served by site 1's copy, then by site 2's
			if got := readFile(t, c.K(s), "/f"); !bytes.Equal(got, want) {
				t.Errorf("site %d reads %d bytes, first %q and last %q; want the writer's page and the one it left alone", s, len(got), got[:1], got[len(got)-1:])
			}
			settle(t, c)
		}
		if c.K(1).Store().Container(w.ID().FG).HasInode(w.ID().Inode) {
			t.Error("site 1 still stores /f after the move to {2} settled")
		}
		for _, fd := range c.Fsck(false) {
			t.Errorf("fsck: %v", fd)
		}
	})
}
