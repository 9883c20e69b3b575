package fs

import (
	"container/list"
	"sync"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// cacheCapPages bounds the per-kernel using-site page cache. The paper
// sizes US buffer management by the kernel buffer pool (§2.2.1); we use
// a fixed page budget (4 MB at 4 KB pages).
const cacheCapPages = 1024

// pageKey names one committed logical page network-wide.
type pageKey struct {
	id storage.FileID
	pn storage.PageNo
}

// pageEnt is one cached committed page. vv is the committed version
// vector of the file when the page was fetched; size the file size at
// that version. prefetched marks pages deposited by streaming readahead
// that have not yet been served (readahead efficiency accounting).
type pageEnt struct {
	key        pageKey
	data       []byte
	size       int64
	vv         vclock.VV
	prefetched bool
}

// pageCache is the per-kernel using-site page cache of committed pages
// (§2.2.1: "network buffer management" at the US is what lets remote
// access approach local cost). It is an LRU keyed by (FileID, PageNo),
// guarded by version vector: a lookup only hits when the cached page's
// committed version reflects at least every update the opening handle
// synchronized on, so a US never serves a page older than the version
// its open synchronized on. Invalidation happens on commit through this
// US, on an incoming commit notification (§2.3.6), and on modify-open.
type pageCache struct {
	mu    sync.Mutex
	ents  map[pageKey]*list.Element
	lru   *list.List // front = most recently used
	stats *netsim.Stats
}

func newPageCache(stats *netsim.Stats) *pageCache {
	return &pageCache{
		ents:  make(map[pageKey]*list.Element),
		lru:   list.New(),
		stats: stats,
	}
}

// get returns the cached page when it is present and at least as new as
// needVV, the version the reading handle's open synchronized on, or, when
// exact, of that version and no other: an internal handle reads exactly
// the version its look found (File.fetchPage), and a page cached at a
// newer one need not even be of that file (an inode number reused after
// its tombstone was dropped starts its versions again) nor of a copy the
// handle's partition holds.
func (pc *pageCache) get(id storage.FileID, pn storage.PageNo, needVV vclock.VV, exact bool) ([]byte, int64, bool) {
	pc.mu.Lock()
	el, ok := pc.ents[pageKey{id, pn}]
	if ok {
		e := el.Value.(*pageEnt)
		if e.vv != nil && e.vv.DominatesOrEqual(needVV) && (!exact || e.vv.Equal(needVV)) {
			pc.lru.MoveToFront(el)
			if e.prefetched {
				e.prefetched = false
				pc.stats.AddReadaheadUsed(1)
			}
			data, size := e.data, e.size
			pc.mu.Unlock()
			pc.stats.AddCacheHit()
			return data, size, true
		}
		// Stale for this handle: a newer version was committed elsewhere
		// and the open synchronized on it, or, for an exact read, another
		// version. Drop the entry; the fresh fetch will repopulate it.
		pc.removeLocked(el)
		pc.stats.AddCacheInvals(1)
	}
	pc.mu.Unlock()
	pc.stats.AddCacheMiss()
	return nil, 0, false
}

// put deposits a committed page fetched from a storage site (directly
// or via readahead piggyback). vv is the committed version served.
// data is retained without copying: by readResp's contract the buffer
// aliases the SS's committed page image, which shadow paging never
// rewrites and the shared-page tracking keeps out of the page pool.
// Cache entries are therefore never released to the pool either —
// eviction just drops the reference.
func (pc *pageCache) put(id storage.FileID, pn storage.PageNo, data []byte, size int64, vv vclock.VV, prefetched bool) {
	if vv == nil {
		return // uncommitted (in-core) data is never cached
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	key := pageKey{id, pn}
	if el, ok := pc.ents[key]; ok {
		e := el.Value.(*pageEnt)
		e.data, e.size, e.vv, e.prefetched = data, size, vv, prefetched
		pc.lru.MoveToFront(el)
		return
	}
	pc.ents[key] = pc.lru.PushFront(&pageEnt{key: key, data: data, size: size, vv: vv, prefetched: prefetched})
	for pc.lru.Len() > cacheCapPages {
		pc.removeLocked(pc.lru.Back())
	}
}

// invalidateFile drops every cached page of id, returning the count
// dropped. Called on commit, modify-open, and commit notification so a
// stale read through an existing handle is impossible after the local
// kernel learns of a new version.
func (pc *pageCache) invalidateFile(id storage.FileID) int {
	pc.mu.Lock()
	var drop []*list.Element
	for key, el := range pc.ents { //locus:vet-allow maporder removal set; no order-observable effect
		if key.id == id {
			drop = append(drop, el)
		}
	}
	for _, el := range drop {
		pc.removeLocked(el)
	}
	n := len(drop)
	pc.mu.Unlock()
	if n > 0 {
		pc.stats.AddCacheInvals(n)
	}
	return n
}

// purge empties the cache (site crash: all volatile state is lost).
func (pc *pageCache) purge() {
	pc.mu.Lock()
	pc.ents = make(map[pageKey]*list.Element)
	pc.lru.Init()
	pc.mu.Unlock()
}

// len returns the number of cached pages (tests).
func (pc *pageCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.lru.Len()
}

func (pc *pageCache) removeLocked(el *list.Element) {
	e := el.Value.(*pageEnt)
	pc.lru.Remove(el)
	delete(pc.ents, e.key)
}
