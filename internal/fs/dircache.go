package fs

import (
	"slices"
	"sync"

	"repro/internal/format"
	"repro/internal/lint/invariant"
	"repro/internal/storage"
)

// dirCache caches directory content keyed by file and version vector.
// Pathname searching (§2.3.4) opens and decodes a directory for every
// component of every path; under a steady workload the same few
// directories are decoded millions of times while changing rarely. The
// version vector is bumped on every commit, and two copies with equal
// vectors are identical by construction (conflicting copies compare
// concurrent, merge results dominate both inputs), so (FileID, VV)
// names directory content exactly: a hit can skip the page read and
// decode entirely, and a stale entry simply misses.
//
// The cached value is a *format.DirSnapshot: immutable, so any number
// of searches and listings share it with no copy and nothing in this
// package can write through it. Both ways to the next version start
// from the cached one and share every chunk the change left alone. The
// CSS, which makes every update (updateDir), derives the next snapshot
// and installs it only after the commit assigns it a new version
// vector; the using site whose fs.dirop it was re-applies the same
// change to its own snapshot (advance). Each entry keeps the committed
// inode of its version (shared, frozen), so the cache also answers a
// look: a site that stores the directory and awaits the pull of a
// version the cache holds, as that using site does after its own
// update, looks at the directory there with no message
// (Kernel.lookCached). Every other site, and that one once it is told of
// a newer commit, misses on the new vector and reads the directory again
// (loadDir), but only the pages that changed: an entry also names the
// storage site whose copy the snapshot is, whose page table the inode
// holds, and a physical page number names the same bytes for as long as
// its container lives (storage.Container.storePage), so a page the
// storage site of the new version still holds under the same number is
// the snapshot's page and is not read. A snapshot holds no slice of the
// bytes it was decoded from: those sit in a recycled buffer that loadDir
// owns.
//
// The cache holds decoded form only; the page-level protocols and the
// US page cache are unaffected, so disk/network byte accounting
// reflects first reads and the pages each re-read fetches.
const dirCacheCap = 512

type dirCacheEntry struct {
	// ino and ss are the copy dir is: the committed inode of the version
	// it encodes (shared, frozen), whose page table is that copy's at the
	// storage site ss.
	ino *storage.Inode
	dir *format.DirSnapshot
	ss  SiteID
}

type dirCache struct {
	mu sync.Mutex
	m  map[storage.FileID]dirCacheEntry
}

// entry returns what the cache holds of id, at whatever version; the zero
// entry if nothing.
func (c *dirCache) entry(id storage.FileID) dirCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[id]
}

// loadDir returns directory id at exactly the version of the look
// (ino, ss): the cached snapshot, or on a miss the one rereadDir makes of
// the cached one, which it caches. A read may be unsynchronized and mix
// versions (§2.3.4): bytes that do not decode are a format.ErrCorrupt,
// nothing is cached, and the caller may read again.
func (k *Kernel) loadDir(id storage.FileID, ino *storage.Inode, ss SiteID) (*format.DirSnapshot, error) {
	e := k.dirs.entry(id)
	if e.dir != nil && e.ino.VV.Equal(ino.VV) {
		return e.dir, nil
	}
	d, err := k.rereadDir(e, id, ino, ss, nil)
	if err != nil {
		return nil, err
	}
	k.dirs.put(id, dirCacheEntry{ino: ino, dir: d, ss: ss})
	return d, nil
}

// rereadDir decodes version ino of directory id, whose copy at storage
// site ss handle f reads, from e, what the cache holds of id: e's bytes,
// as a rule the version another site's update just made stale, with the
// pages that differ read over them. A page ss holds under the number the
// cached copy at ss has is not read. When no page is read and the size is
// the same (an inode-only commit), it is e's snapshot itself. Otherwise
// the pages are read through f, or, when f is nil, a registered internal
// handle, whose reads check the version of every page and which partition
// cleanup knows of; the bytes are decoded against e's snapshot, so that
// only the chunks the update changed are decoded
// (format.DecodeDirSnapshot).
func (k *Kernel) rereadDir(e dirCacheEntry, id storage.FileID, ino *storage.Inode, ss SiteID, f *File) (*format.DirSnapshot, error) {
	held := 0 // the cached copy's pages that are ino's pages at ss
	if e.dir != nil && e.ss == ss {
		held = min(int(pagesOf(int64(e.dir.Size()))), len(e.ino.Pages), len(ino.Pages))
	}
	reused := func(pn int) bool { return pn < held && ino.Pages[pn] == e.ino.Pages[pn] }
	size, np, read := int(ino.Size), int(pagesOf(ino.Size)), 0
	for pn := 0; pn < np; pn++ {
		if !reused(pn) {
			read++
		}
	}
	if read == 0 && e.dir != nil && size == e.dir.Size() {
		k.assertDirBytes(id, ss, ino.VV, e.dir)
		return e.dir, nil
	}

	// The cached snapshot's bytes, cut or zero-padded to size, with the
	// pages read copied over them.
	buf := dirReadBufs.Get().(*[]byte)
	defer dirReadBufs.Put(buf)
	raw := (*buf)[:0]
	if read < np {
		raw = e.dir.AppendEncoded(raw)
	}
	if n := len(raw); n >= size {
		raw = raw[:size]
	} else {
		raw = slices.Grow(raw, size-n)[:size]
		clear(raw[n:])
	}
	*buf = raw
	if read > 0 {
		if f == nil {
			f = k.internalHandle(id, ino, ss)
			defer f.Close() //locus:vet-allow uncheckedcall internal close is local bookkeeping
		}
		for pn := 0; pn < np; pn++ {
			if reused(pn) {
				continue
			}
			data, _, owned, err := f.fetchPage(storage.PageNo(pn))
			if err != nil {
				return nil, err
			}
			copy(raw[pn*storage.PageSize:], data[:min(storage.PageSize, size-pn*storage.PageSize)])
			if owned {
				storage.PutPageBuf(data)
			}
		}
	}
	d, err := format.DecodeDirSnapshot(e.dir, raw)
	if invariant.Enabled {
		// A snapshot that kept a slice of the buffer reads as garbage from
		// here on, not as whichever directory is read into it next.
		for i := range raw {
			raw[i] = dirBufPoison
		}
	}
	if err != nil {
		return nil, err
	}
	if read < np {
		k.assertDirBytes(id, ss, ino.VV, d)
	}
	return d, nil
}

// advance caches the snapshot the CSS made from the one at r.Prev for an
// fs.dirop this site sent: muts re-applied to the cached snapshot, if
// that is the one at r.Prev, under the update's committed inode r.Ino.
// Otherwise nothing changes, and the next search reads the directory
// again.
func (c *dirCache) advance(id storage.FileID, r *dirOpResp, muts []dirMut) {
	e := c.entry(id)
	if e.dir == nil || !e.ino.VV.Equal(r.Prev) {
		return
	}
	if d, err := applyMuts(e.dir, muts); err == nil {
		c.put(id, dirCacheEntry{ino: r.Ino, dir: d, ss: r.SS})
	}
}

// dirBufPoison is the page pool's poison byte (storage.pagePoisonByte).
const dirBufPoison = 0xDB

// put installs e for id. When the cache fills it is dropped wholesale —
// deterministic, and directories are few enough that refilling is
// cheap.
func (c *dirCache) put(id storage.FileID, e dirCacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= dirCacheCap {
		c.m = make(map[storage.FileID]dirCacheEntry, 16)
	}
	c.m[id] = e
}

// dirReadBufs recycles the directory-sized buffers loadDir reads a stale
// directory into. None outlives its call: the decoder copies what it
// keeps.
var dirReadBufs = sync.Pool{New: func() any { return new([]byte) }}
