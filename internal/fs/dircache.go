package fs

import (
	"sync"

	"repro/internal/format"
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
// package can write through it. The mutation path (updateDir) derives
// the next snapshot from the cached one — sharing every chunk but the
// one it touches — and installs it only after the commit assigns it a
// new version vector.
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

// load returns id's content at exactly version vv: the cached snapshot,
// or on a miss the one built from the bytes read returns, which it
// caches. This is the one place raw bytes become a cached snapshot. read
// must return a buffer nobody writes again (the snapshot keeps it), and
// may be an unsynchronized read that mixes versions (§2.3.4): bytes that
// do not decode are a format.ErrCorrupt, nothing is cached, and the
// caller may read again.
func (c *dirCache) load(id storage.FileID, vv vclock.VV, read func() ([]byte, error)) (*format.DirSnapshot, error) {
	c.mu.Lock()
	e, ok := c.m[id]
	c.mu.Unlock()
	if ok && e.vv.Equal(vv) {
		return e.dir, nil
	}
	raw, err := read()
	if err != nil {
		return nil, err
	}
	d, err := format.DecodeDirSnapshot(raw)
	if err != nil {
		return nil, err
	}
	c.put(id, vv, d)
	return d, nil
}

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

// dirEncBufs recycles the buffers updateDir assembles a directory's
// serialization in. WriteAll copies what it is given into pages before
// it returns, so a buffer is free again as soon as the write is issued.
var dirEncBufs = sync.Pool{New: func() any { return new([]byte) }}
