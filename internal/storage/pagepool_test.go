package storage

import (
	"bytes"
	"testing"

	"repro/internal/lint/invariant"
)

func TestPageBufGetZeroed(t *testing.T) {
	for i := 0; i < 8; i++ {
		buf := GetPageBuf()
		if len(buf) != PageSize {
			t.Fatalf("GetPageBuf length %d, want %d", len(buf), PageSize)
		}
		for j, b := range buf {
			if b != 0 {
				t.Fatalf("GetPageBuf returned dirty buffer: byte %d = 0x%02x", j, b)
			}
		}
		for j := range buf {
			buf[j] = 0xAA
		}
		PutPageBuf(buf)
	}
}

// TestPutPageBufScrubs: no payload survives a trip through the pool,
// though Put itself clears nothing (it poisons, under locusinvariants).
// Whoever takes the buffer next clears what its own copy leaves: all of
// it (GetPageBuf), or the tail past a short WritePage.
func TestPutPageBufScrubs(t *testing.T) {
	dirty := func() {
		buf := GetPageBuf()
		for i := range buf {
			buf[i] = 0x55
		}
		PutPageBuf(buf)
		if invariant.Enabled {
			for i, b := range buf {
				if b != pagePoisonByte {
					t.Fatalf("byte %d after Put = 0x%02x, want the poison 0x%02x", i, b, pagePoisonByte)
				}
			}
		}
	}
	c := MustContainer(1, 1, 1, 100, nil, Costs{})
	for round := 0; round < 8; round++ {
		dirty()
		p, err := c.WritePage([]byte("short"))
		if err != nil {
			t.Fatal(err)
		}
		dirty()
		got, err := c.ReadPage(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != PageSize || !bytes.Equal(got[:5], []byte("short")) {
			t.Fatalf("page reads %q (%d bytes)", got[:5], len(got))
		}
		for i, b := range got[5:] {
			if b != 0 {
				t.Fatalf("byte %d past a 5-byte WritePage = 0x%02x: a recycled buffer's bytes leaked into the page", 5+i, b)
			}
		}
		PutPageBuf(got)
		c.FreePages(p)
	}
}

func TestPutPageBufRejectsOddSizes(t *testing.T) {
	_, puts0, _ := PagePoolStats()
	PutPageBuf(make([]byte, PageSize-1))
	PutPageBuf(nil)
	_, puts1, _ := PagePoolStats()
	if puts1 != puts0 {
		t.Fatalf("pool accepted non-PageSize buffers: puts %d -> %d", puts0, puts1)
	}
}

func TestPagePoolStatsAdvance(t *testing.T) {
	gets0, puts0, _ := PagePoolStats()
	buf := GetPageBuf()
	PutPageBuf(buf)
	gets1, puts1, _ := PagePoolStats()
	if gets1 <= gets0 || puts1 <= puts0 {
		t.Fatalf("pool stats did not advance: gets %d->%d puts %d->%d", gets0, gets1, puts0, puts1)
	}
}

// TestPoolPoisonCatchesWriteAfterFree proves the locusinvariants build
// detects a stale owner scribbling on a returned buffer. sync.Pool does
// not guarantee which buffer a Get returns, so the test hunts for its
// corrupted buffer for a bounded number of Gets and skips if the pool
// dropped it.
func TestPoolPoisonCatchesWriteAfterFree(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags locusinvariants")
	}
	buf := GetPageBuf()
	PutPageBuf(buf)
	buf[17] = 0x42 // write-after-free

	defer func() {
		if r := recover(); r == nil && !t.Skipped() {
			t.Fatalf("Get returned the corrupted buffer without panicking")
		}
	}()
	for i := 0; i < 64; i++ {
		got := GetPageBuf()
		if &got[0] == &buf[0] {
			// Reaching here means Get handed the corrupted buffer back
			// without the poison check firing.
			t.Fatalf("poison check missed the corruption")
		}
	}
	t.Skip("pool dropped the corrupted buffer before it was re-issued")
}

// TestReadPageSharedSurvivesFree pins the zero-copy aliasing contract:
// a buffer handed out by ReadPageShared keeps its contents even after
// the page is freed and recycled, because shared pages are never
// returned to the pool.
func TestReadPageSharedSurvivesFree(t *testing.T) {
	c := MustContainer(1, 1, 1, 100, nil, Costs{})
	payload := bytes.Repeat([]byte{0xC3}, PageSize)
	pp, err := c.WritePage(payload)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := c.ReadPageShared(pp)
	if err != nil {
		t.Fatal(err)
	}
	c.FreePages(pp)
	// Churn the pool: if the shared buffer had been recycled, these
	// writes would scribble over it.
	for i := 0; i < 8; i++ {
		b := GetPageBuf()
		for j := range b {
			b[j] = 0x11
		}
		PutPageBuf(b)
	}
	if !bytes.Equal(shared, payload) {
		t.Fatalf("shared buffer mutated after FreePages: first byte 0x%02x", shared[0])
	}
}

// TestReadPageExclusiveCopy pins ReadPage's contract: the returned
// buffer is a caller-owned copy, independent of the stored page.
func TestReadPageExclusiveCopy(t *testing.T) {
	c := MustContainer(1, 1, 1, 100, nil, Costs{})
	pp, err := c.WritePage([]byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.ReadPage(pp)
	if err != nil {
		t.Fatal(err)
	}
	a[0] = 99
	b, err := c.ReadPage(pp)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatalf("ReadPage copy aliases stored page: got %d", b[0])
	}
	PutPageBuf(a)
	PutPageBuf(b)
}

// diskMeter counts what a container charges.
type diskMeter struct{ cpu, disk int64 }

func (m *diskMeter) AddCPU(us int64)  { m.cpu += us }
func (m *diskMeter) AddDisk(us int64) { m.disk += us }

// TestAdoptPageContract pins the hand-off a pulled page makes: the
// container stores the caller's buffer itself (no copy), charges the
// disk once, exactly as WritePage does, recycles the buffer through the
// pool when the page is freed (nothing shared it), and refuses anything
// that is not a whole page.
func TestAdoptPageContract(t *testing.T) {
	var wm, am diskMeter
	costs := Costs{DiskUs: 26000, PageCPU: 400}
	w := MustContainer(1, 1, 1, 100, &wm, costs)
	a := MustContainer(1, 2, 101, 200, &am, costs)

	payload := bytes.Repeat([]byte{0x5A}, PageSize)
	if _, err := w.WritePage(payload); err != nil {
		t.Fatal(err)
	}
	buf := GetPageBuf()
	copy(buf, payload)
	pp, err := a.AdoptPage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if am != wm || am.disk != costs.DiskUs {
		t.Fatalf("AdoptPage charged %+v, WritePage %+v; want one page transfer each", am, wm)
	}
	if a.PageCount() != 1 {
		t.Fatalf("adopted page not stored: %d pages", a.PageCount())
	}
	stored, err := a.ReadPageShared(pp)
	if err != nil {
		t.Fatal(err)
	}
	if &stored[0] != &buf[0] {
		t.Fatal("AdoptPage copied the buffer; the container must store the one it was handed")
	}
	// The peek above marked the page shared. Adopt another, which nothing
	// has looked at, to see the pool take it back.
	buf2 := GetPageBuf()
	pp2, err := a.AdoptPage(buf2)
	if err != nil {
		t.Fatal(err)
	}
	_, puts0, _ := PagePoolStats()
	a.FreePages(pp2)
	if _, puts1, _ := PagePoolStats(); puts1 != puts0+1 {
		t.Fatalf("freeing an adopted page put %d buffers back, want 1", puts1-puts0)
	}

	for _, bad := range [][]byte{nil, make([]byte, PageSize-1), make([]byte, PageSize+1), make([]byte, PageSize, 2*PageSize)[:3]} {
		before := a.PageCount()
		if _, err := a.AdoptPage(bad); err == nil {
			t.Fatalf("AdoptPage accepted a %d-byte buffer", len(bad))
		}
		if a.PageCount() != before {
			t.Fatalf("a refused %d-byte buffer was stored", len(bad))
		}
	}
}

// TestAdoptPageTwicePanics: a buffer that is already one of the
// container's pages must not get a second page number — freeing both
// would put one buffer in the pool twice.
func TestAdoptPageTwicePanics(t *testing.T) {
	if !invariant.Enabled {
		t.Skip("needs -tags locusinvariants")
	}
	c := MustContainer(1, 1, 1, 100, nil, Costs{})
	buf := GetPageBuf()
	if _, err := c.AdoptPage(buf); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second adoption of one buffer did not trip the invariant")
		}
	}()
	_, _ = c.AdoptPage(buf) // panics before it returns
}
