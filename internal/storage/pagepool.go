package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/lint/invariant"
)

// Page-buffer pool. Every data page in the system is exactly PageSize
// bytes, and the simulator's hot paths (WritePage shadow allocation,
// ReadPage copies served to local readers and to propagation pulls)
// used to allocate a fresh 4 KB slice per call — the dominant
// allocation source under a million-op workload. The pool recycles
// those buffers.
//
// Ownership rules (the pool is safe only because these are narrow):
//
//  1. A buffer has one owner at each moment. GetPageBuf returns a zeroed
//     PageSize buffer owned exclusively by the caller; WritePage copies
//     into one the container owns; AdoptPage makes the caller's buffer
//     the container's. PutPageBuf may be called only by the owner, after
//     which the buffer must never be touched again. An owner that
//     cannot prove it is the only one simply doesn't Put — the buffer
//     falls to the garbage collector, which is always correct. A buffer
//     in the pool keeps its last owner's bytes: Put clears nothing (the
//     page it frees is cold, and most takers overwrite all of it), so
//     the taker does — GetPageBuf the whole page, and WritePage and
//     ReadPage, which take theirs through getDirtyPageBuf, only the tail
//     their copy leaves.
//  2. A buffer that has escaped is never Put. Escaped means aliased by
//     someone the container cannot see: a remote read served zero-copy
//     into a using-site cache, the writer's in-core page read in place.
//     The container marks those pages shared (see ReadPageShared) and
//     drops their buffers to the collector when the page is freed.
//  3. A page served to a pull is a copy the response owns (ReadPage,
//     made under the container lock). The receiver adopts it
//     (AdoptPage) or Puts it; the origin's committed page was never
//     marked shared, so the commit that supersedes it Puts its buffer.
//     This is sound only while no reply that carries pages is cached
//     and replayed (fs.pullopen, fs.pullpages and fs.readphys are not
//     at-most-once): a replayed response would reach two adopters.
//
// Under -tags locusinvariants every buffer is filled with a poison
// pattern on Put and checked on Get, so a write-after-free (a stale
// owner scribbling on a recycled buffer) panics instead of silently
// corrupting an unrelated page.

// pagePoisonByte fills pooled buffers between Put and Get under the
// locusinvariants build tag.
const pagePoisonByte = 0xDB

// pagePool stores *[PageSize]byte (not []byte) so Put/Get don't
// allocate a slice header per interface conversion. New hands back a
// poisoned page under invariants so Get's check holds uniformly.
var pagePool = sync.Pool{New: func() any { return newPoisonedPage() }}

// Pool hit accounting (profiling and tests; monotonically increasing).
var (
	pagePoolGets atomic.Int64
	pagePoolPuts atomic.Int64
	pagePoolNews atomic.Int64
)

func newPoisonedPage() *[PageSize]byte {
	pagePoolNews.Add(1)
	p := new([PageSize]byte)
	if invariant.Enabled {
		for i := range p {
			p[i] = pagePoisonByte
		}
	}
	return p
}

// GetPageBuf returns a zeroed PageSize-byte buffer from the pool. The
// caller owns it exclusively until PutPageBuf (or forever, if it never
// Puts).
func GetPageBuf() []byte {
	buf := getDirtyPageBuf()
	clear(buf)
	return buf
}

// getDirtyPageBuf is GetPageBuf without the clear: the buffer holds
// whatever its last owner left (the poison pattern under
// locusinvariants), for a caller that overwrites it at once and clears
// the tail its copy leaves.
func getDirtyPageBuf() []byte {
	pagePoolGets.Add(1)
	p := pagePool.Get().(*[PageSize]byte)
	if invariant.Enabled {
		for i, b := range p {
			if b != pagePoisonByte {
				invariant.Assertf(false, "storage: pooled page buffer corrupted at byte %d (0x%02x): write-after-free on a recycled page", i, b)
			}
		}
	}
	return p[:]
}

// PutPageBuf returns an exclusively owned page buffer to the pool. The
// buffer must be exactly PageSize bytes (anything else is quietly left
// to the GC) and must not be used after the call. Its bytes are left as
// they are (poisoned under locusinvariants): whoever takes it next
// clears what it needs.
func PutPageBuf(buf []byte) {
	if len(buf) != PageSize || cap(buf) < PageSize {
		return
	}
	pagePoolPuts.Add(1)
	p := (*[PageSize]byte)(buf)
	if invariant.Enabled {
		for i := range p {
			p[i] = pagePoisonByte
		}
	}
	pagePool.Put(p)
}

// PagePoolStats reports cumulative pool traffic: buffers handed out,
// buffers returned, and fresh allocations (pool misses). gets-news is
// the number of recycled hand-outs.
func PagePoolStats() (gets, puts, news int64) {
	return pagePoolGets.Load(), pagePoolPuts.Load(), pagePoolNews.Load()
}
