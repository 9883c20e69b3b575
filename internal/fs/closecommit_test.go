package fs_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// storedAt writes /f from site 1, stores it at sites, settles, and
// returns its id.
func storedAt(t *testing.T, c *cluster.Cluster, sites ...fs.SiteID) storage.FileID {
	t.Helper()
	writeFile(t, c.K(1), "/f", []byte("v0"))
	if err := c.K(1).SetReplication(cred(), "/f", sites); err != nil {
		t.Fatal(err)
	}
	settle(t, c)
	r, err := c.K(1).Resolve(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	return r.ID
}

// TestCloseWhoseCommitFailsReleasesTheWriter: a close whose commit fails
// at the storage site returns the commit's error, and still runs the
// close protocol, so the CSS's writer slot is free at once and the next
// modify open from another site needs no fs.recallwriter of the closed
// registration.
func TestCloseWhoseCommitFailsReleasesTheWriter(t *testing.T) {
	c := newCluster(t, 3) // CSS = site 1
	id := storedAt(t, c, 3)
	w, err := c.K(2).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if ss := c.K(3).ServingWriter(id); ss != 2 {
		t.Fatalf("site 3 serves writer %d, want site 2", ss)
	}
	c.K(3).LoseServing(id)
	if err := w.Close(); !errors.Is(err, fs.ErrStale) {
		t.Fatalf("close whose commit fails: %v, want the commit's ErrStale", err)
	}
	if us := c.K(1).CSSWriter(id); us != vclock.NoSite {
		t.Errorf("the CSS still records site %d as the writer after its close", us)
	}
	before := c.Net.Stats()
	w3, err := c.K(3).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatalf("modify open after the failed close: %v", err)
	}
	if d := c.Net.Stats().Sub(before); d.ByMethod["fs.recallwriter"] != 0 {
		t.Errorf("the modify open recalled the closed writer: %v", d.ByMethod)
	}
	if err := w3.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, c.K(2), "/f"); string(got) != "v0" {
		t.Errorf("read %q after the failed commit, want the committed %q", got, "v0")
	}
}

// TestClosesNoteReachesCSSWhenSSCloseIsLost loses every transmission of
// an fs.ssclose that carries a commit's note to the CSS. The storage
// site then casts the note as the fs.propnotify it would have been: the
// CSS, which stores a copy, still queues its pull, and its lock table
// learns the new version.
func TestClosesNoteReachesCSSWhenSSCloseIsLost(t *testing.T) {
	c := newCluster(t, 3) // CSS = site 1
	id := storedAt(t, c, 1, 2, 3)
	w, err := c.K(2).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if ss := c.K(2).ServingWriter(id); ss != 2 {
		t.Fatalf("site 2 serves writer %d, want itself", ss)
	}
	if err := w.WriteAll([]byte("v1")); err != nil {
		t.Fatal(err)
	}
	lost := fs.Cut{At: fs.NthRequest(2, 1, "fs.ssclose", 1), Drop: 8} // every transmission of one Call
	before := c.Net.Stats()
	lost.Run(c.Net, func() { err = w.Close() })
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Net.Stats().Sub(before); d.MsgsDropped != int64(lost.Drop) {
		t.Errorf("%d messages dropped, want the %d fs.ssclose transmissions", d.MsgsDropped, lost.Drop)
	}
	ino, err := c.K(2).Stat(cred(), "/f")
	if err != nil {
		t.Fatal(err)
	}
	if pending := c.K(1).DebugPendingPropagations(); !strings.Contains(pending, fmt.Sprint(id)) {
		t.Errorf("the CSS queued no pull of %v: %q", id, pending)
	}
	if got := c.K(1).CSSLatest(id); !got.Equal(ino.VV) {
		t.Errorf("the CSS knows version %v of %v, want the close's %v", got, id, ino.VV)
	}
	settle(t, c)
	if got := readFile(t, c.K(1), "/f"); string(got) != "v1" {
		t.Errorf("site 1 reads %q after the settle, want %q", got, "v1")
	}
}

// TestCommitAtCloseUnderConcurrentOpens: sites 2 and 3 rewrite one file
// stored at sites 1-3 in loops, each write an open, a rewrite and the
// close that commits it, as WriteFile does, while site 1 (the CSS) and
// site 4 (no copy) read it. Every read that opens after a close has
// returned must find that close's version or a newer one: the CSS learns
// the version from the fs.ssclose that frees the writer slot. A writer
// stamps its version after its open, while it holds the slot, so version
// numbers follow commit order.
func TestCommitAtCloseUnderConcurrentOpens(t *testing.T) {
	const writes = 15 // per writer
	c := newCluster(t, 4)
	id := storedAt(t, c, 1, 2, 3)
	var next, done atomic.Uint64 // the last version stamped; the newest whose close returned
	var writers sync.WaitGroup
	var stop atomic.Bool
	errs := make(chan error, 8)
	for _, s := range []fs.SiteID{2, 3} {
		writers.Add(1)
		go func(k *fs.Kernel) {
			defer writers.Done()
			for i := 0; i < writes; {
				w, err := k.OpenID(id, fs.ModeModify)
				if errors.Is(err, fs.ErrBusy) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("site %d modify open: %w", k.Site(), err)
					return
				}
				v := next.Add(1)
				if err := w.WriteAll(binary.BigEndian.AppendUint64(nil, v)); err != nil {
					errs <- fmt.Errorf("site %d write: %w", k.Site(), err)
				}
				if err := w.Close(); err != nil {
					errs <- fmt.Errorf("site %d close: %w", k.Site(), err)
					return
				}
				for d := done.Load(); d < v && !done.CompareAndSwap(d, v); d = done.Load() {
				}
				i++
			}
		}(c.K(s))
	}
	var readers sync.WaitGroup
	for _, s := range []fs.SiteID{1, 4} {
		readers.Add(1)
		go func(k *fs.Kernel) {
			defer readers.Done()
			for !stop.Load() {
				floor := done.Load()
				f, err := k.OpenID(id, fs.ModeRead)
				if errors.Is(err, fs.ErrBusy) {
					runtime.Gosched()
					continue
				}
				if err != nil {
					errs <- fmt.Errorf("site %d open: %w", k.Site(), err)
					return
				}
				data, err := f.ReadAll()
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					errs <- fmt.Errorf("site %d read: %w", k.Site(), err)
					return
				}
				if bytes.Equal(data, []byte("v0")) {
					data = make([]byte, 8)
				}
				if len(data) != 8 {
					errs <- fmt.Errorf("site %d read %q", k.Site(), data)
					return
				}
				if v := binary.BigEndian.Uint64(data); v < floor {
					errs <- fmt.Errorf("site %d read version %d, opened after the close of version %d returned", k.Site(), v, floor)
					return
				}
				if k.Site() == 1 {
					k.DrainPropagation()
				}
			}
		}(c.K(s))
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settle(t, c)
}

// TestReadAllAfterTheCopyGrew: a reader learns the file's size from its
// storage site with each page, so when the site's copy is replaced by a
// longer version between the open and the read (here a pull at the CSS,
// which served the open), ReadAll returns the whole of what it read, not
// the new version cut at the size the open saw.
func TestReadAllAfterTheCopyGrew(t *testing.T) {
	c := newCluster(t, 4) // CSS = site 1
	id := storedAt(t, c, 1, 2, 3)
	r, err := c.K(4).OpenID(id, fs.ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck
	if ss := r.ServedBy(); ss != 1 {
		t.Fatalf("site 4 reads from site %d, want the CSS", ss)
	}
	w, err := c.K(2).OpenID(id, fs.ModeModify)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll([]byte("version 1")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c.K(1).DrainPropagation()
	if got, err := r.ReadAll(); err != nil || string(got) != "version 1" {
		t.Errorf("ReadAll after the copy grew = (%q, %v), want %q", got, err, "version 1")
	}
}
