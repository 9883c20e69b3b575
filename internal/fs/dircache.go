package fs

import (
	"sync"

	"repro/internal/format"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// dirCache caches decoded directory content keyed by file and version
// vector. Pathname searching (§2.3.4) opens and decodes a directory for
// every component of every path; under a steady workload the same few
// directories are decoded millions of times while changing rarely. The
// version vector is bumped on every commit, and two copies with equal
// vectors are identical by construction (conflicting copies compare
// concurrent, merge results dominate both inputs), so (FileID, VV)
// names directory content exactly: a hit can skip the page read and
// decode entirely, and a stale entry simply misses.
//
// Cached *format.Directory values are shared between callers and MUST
// be treated as read-only. The mutation path (updateDir) decodes its
// own private copy, and refreshes the cache with the mutated directory
// only after the commit assigns it a new version vector.
//
// The cache holds decoded form only; the page-level protocols and the
// US page cache are unaffected, so disk/network byte accounting still
// reflects first reads and every post-update re-read.
const dirCacheCap = 512

type dirCacheEntry struct {
	vv  vclock.VV
	dir *format.Directory
}

type dirCache struct {
	mu sync.Mutex
	m  map[storage.FileID]dirCacheEntry
}

// get returns the cached decode of id's content at exactly version vv.
func (c *dirCache) get(id storage.FileID, vv vclock.VV) (*format.Directory, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[id]
	if !ok || !e.vv.Equal(vv) {
		return nil, false
	}
	return e.dir, true
}

// put installs the decoded directory for id at version vv. The caller
// yields ownership: d must not be mutated after put. When the cache
// fills it is dropped wholesale — deterministic, and directories are
// few enough that refilling is cheap.
func (c *dirCache) put(id storage.FileID, vv vclock.VV, d *format.Directory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= dirCacheCap {
		c.m = make(map[storage.FileID]dirCacheEntry, 16)
	}
	c.m[id] = dirCacheEntry{vv: vv, dir: d}
}
