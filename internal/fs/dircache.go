package fs

import (
	"sync"

	"repro/internal/format"
	"repro/internal/lint/invariant"
	"repro/internal/storage"
	"repro/internal/vclock"
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
// change to its own snapshot (advance). Every other site misses on that
// vector, reads the directory again, and decodes the bytes against its
// now stale snapshot (load). A
// snapshot holds no slice of the bytes it was decoded from: those sit
// in a recycled buffer that load owns.
//
// The cache holds decoded form only; the page-level protocols and the
// US page cache are unaffected, so disk/network byte accounting still
// reflects first reads and every post-update re-read.
const dirCacheCap = 512

type dirCacheEntry struct {
	vv  vclock.VV
	dir *format.DirSnapshot
}

type dirCache struct {
	mu sync.Mutex
	m  map[storage.FileID]dirCacheEntry
}

// get returns the cached snapshot of id at exactly version vv, or nil.
// A pathname search asks this first, with the vector of the inode its
// unsynchronized look found: on a hit it reads no page and so needs no
// handle to read one through.
func (c *dirCache) get(id storage.FileID, vv vclock.VV) *format.DirSnapshot {
	if e := c.entry(id); e.dir != nil && e.vv.Equal(vv) {
		return e.dir
	}
	return nil
}

// entry returns what the cache holds of id, at whatever version; the zero
// entry if nothing.
func (c *dirCache) entry(id storage.FileID) dirCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[id]
}

// load returns id's content at exactly version vv: the cached snapshot,
// or on a miss the one decoded from the bytes read returns, which it
// caches. This is the one place raw bytes become a cached snapshot, and
// it decodes them against whatever snapshot of id the cache holds — the
// version another site's update just made stale, as a rule — so that
// only the chunks that update changed are decoded (format.DecodeDirSnapshot).
//
// load owns the buffer: read fills the empty recycled buffer it is
// handed (growing it if it must) and returns it, the snapshot keeps
// none of it, and it is back in dirReadBufs before load returns. read may
// be an unsynchronized read that mixes versions (§2.3.4): bytes that do
// not decode are a format.ErrCorrupt, nothing is cached, and the caller
// may read again.
func (c *dirCache) load(id storage.FileID, vv vclock.VV, read func(buf []byte) ([]byte, error)) (*format.DirSnapshot, error) {
	e := c.entry(id)
	if e.dir != nil && e.vv.Equal(vv) {
		return e.dir, nil
	}
	buf := dirReadBufs.Get().(*[]byte)
	defer dirReadBufs.Put(buf)
	raw, err := read((*buf)[:0])
	if err != nil {
		return nil, err
	}
	d, err := format.DecodeDirSnapshot(e.dir, raw)
	*buf = raw // recycle the buffer read grew, not the one it outgrew
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
	c.put(id, vv, d)
	return d, nil
}

// advance caches the snapshot the CSS made from the one at prev for an
// fs.dirop this site sent: muts re-applied to the cached snapshot, if
// that is the one at prev, at the update's version vv. Otherwise nothing
// changes, and the next search reads the directory again.
func (c *dirCache) advance(id storage.FileID, prev, vv vclock.VV, muts []dirMut) {
	e := c.entry(id)
	if e.dir == nil || !e.vv.Equal(prev) {
		return
	}
	if d, err := applyMuts(e.dir, muts); err == nil {
		c.put(id, vv, d)
	}
}

// dirBufPoison is the page pool's poison byte (storage.pagePoisonByte).
const dirBufPoison = 0xDB

// put installs the snapshot for id at version vv. When the cache fills
// it is dropped wholesale — deterministic, and directories are few
// enough that refilling is cheap.
func (c *dirCache) put(id storage.FileID, vv vclock.VV, d *format.DirSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= dirCacheCap {
		c.m = make(map[storage.FileID]dirCacheEntry, 16)
	}
	c.m[id] = dirCacheEntry{vv: vv, dir: d}
}

// dirReadBufs recycles the directory-sized buffers load reads a stale
// directory into. None outlives its call: the decoder copies what it
// keeps.
var dirReadBufs = sync.Pool{New: func() any { return new([]byte) }}
