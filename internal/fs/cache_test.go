package fs

import (
	"bytes"
	"testing"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

func testCache() *pageCache { return newPageCache(&netsim.Stats{}) }

func fid(n storage.InodeNum) storage.FileID {
	return storage.FileID{FG: 1, Inode: n}
}

func pageBytes(b byte) []byte {
	p := make([]byte, storage.PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestPageCacheHitRequiresVVAtLeastHandleVV(t *testing.T) {
	pc := testCache()
	v1 := vclock.New().Bump(1)
	v2 := v1.Bump(2)

	pc.put(fid(1), 0, pageBytes('a'), storage.PageSize, v1, false)

	// A handle that synchronized on v1 is served the v1 page.
	if data, size, ok := pc.get(fid(1), 0, v1); !ok || size != storage.PageSize || data[0] != 'a' {
		t.Fatalf("get(v1) = %v,%d,%v; want hit", data != nil, size, ok)
	}
	// A handle that synchronized on v2 must NOT be served the v1 page;
	// the stale entry is evicted.
	if _, _, ok := pc.get(fid(1), 0, v2); ok {
		t.Fatal("stale v1 page served to a handle synchronized on v2")
	}
	if pc.len() != 0 {
		t.Fatalf("stale entry not evicted: len=%d", pc.len())
	}
	// A v2 page serves both a v2 handle and an older v1 handle (newer
	// than the open's sync point is allowed; older never is).
	pc.put(fid(1), 0, pageBytes('b'), storage.PageSize, v2, false)
	if _, _, ok := pc.get(fid(1), 0, v2); !ok {
		t.Fatal("v2 page should serve v2 handle")
	}
	if _, _, ok := pc.get(fid(1), 0, v1); !ok {
		t.Fatal("v2 page should serve v1 handle")
	}
}

func TestPageCacheNeverCachesUncommitted(t *testing.T) {
	pc := testCache()
	pc.put(fid(1), 0, pageBytes('w'), storage.PageSize, nil, false)
	if pc.len() != 0 {
		t.Fatal("in-core (nil-VV) page must not be cached")
	}
}

func TestPageCacheInvalidateFile(t *testing.T) {
	pc := testCache()
	v1 := vclock.New().Bump(1)
	for pn := storage.PageNo(0); pn < 4; pn++ {
		pc.put(fid(1), pn, pageBytes('a'), 4*storage.PageSize, v1, false)
		pc.put(fid(2), pn, pageBytes('b'), 4*storage.PageSize, v1, false)
	}
	if n := pc.invalidateFile(fid(1)); n != 4 {
		t.Fatalf("invalidateFile dropped %d pages, want 4", n)
	}
	if _, _, ok := pc.get(fid(1), 0, v1); ok {
		t.Fatal("invalidated page still served")
	}
	if _, _, ok := pc.get(fid(2), 0, v1); !ok {
		t.Fatal("other file's pages must survive invalidation")
	}
}

func TestPageCacheLRUEviction(t *testing.T) {
	pc := testCache()
	v1 := vclock.New().Bump(1)
	for i := 0; i < cacheCapPages+8; i++ {
		pc.put(fid(storage.InodeNum(i+1)), 0, pageBytes('x'), storage.PageSize, v1, false)
	}
	if pc.len() != cacheCapPages {
		t.Fatalf("cache holds %d pages, cap is %d", pc.len(), cacheCapPages)
	}
	// The oldest entries were evicted; the newest survive.
	if _, _, ok := pc.get(fid(1), 0, v1); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, _, ok := pc.get(fid(storage.InodeNum(cacheCapPages+8)), 0, v1); !ok {
		t.Fatal("newest entry should still be cached")
	}
}

// TestMergePartialPageCopies is the regression test for the WriteAt
// partial-page merge: the fetched page may alias a cached committed
// page, so the merge must never mutate its input in place.
func TestMergePartialPageCopies(t *testing.T) {
	old := bytes.Repeat([]byte{'o'}, storage.PageSize)
	orig := append([]byte(nil), old...)
	merged := mergePartialPage(old, 100, []byte("NEW"))
	if !bytes.Equal(old, orig) {
		t.Fatal("mergePartialPage mutated the source page in place")
	}
	want := append([]byte(nil), orig...)
	copy(want[100:], "NEW")
	if !bytes.Equal(merged, want) {
		t.Fatal("mergePartialPage produced wrong contents")
	}
	if len(merged) != storage.PageSize {
		t.Fatalf("merged page is %d bytes, want %d", len(merged), storage.PageSize)
	}
}
