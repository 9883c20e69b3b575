package format

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// checkSnapshot states what a snapshot owes its readers, against the
// flat directory holding the same entries: chunks within their size
// bounds and in order, each carrying exactly its entries' encoding and
// live count, totals that add up, the flat form's entries in its order
// and its live listing in a slice of exactly that size; and a layout
// (checkLayout) whose encoding decodes to the flat form's entries and
// back to the same bytes, page by page as AppendPage assembles them.
func checkSnapshot(s *DirSnapshot, want *Directory) error {
	var n, live int
	prev := ""
	for ci, c := range s.chunks {
		if !sameEntries(c.entries, want.Entries[min(n, len(want.Entries)):min(n+len(c.entries), len(want.Entries))]) {
			return fmt.Errorf("chunk %d does not hold entries %d..%d of the flat directory", ci, n, n+len(c.entries))
		}
		if len(c.entries) < 1 || len(c.entries) > chunkMax {
			return fmt.Errorf("chunk %d holds %d entries, want 1..%d", ci, len(c.entries), chunkMax)
		}
		cl := 0
		for i, e := range c.entries {
			if (ci > 0 || i > 0) && e.Name <= prev {
				return fmt.Errorf("chunk %d entry %d %q does not sort after %q", ci, i, e.Name, prev)
			}
			prev = e.Name
			if !e.Deleted {
				cl++
			}
		}
		if int(c.live) != cl {
			return fmt.Errorf("chunk %d counts %d live entries, has %d", ci, c.live, cl)
		}
		if !bytes.Equal(c.enc, appendEntries(nil, c.entries)) {
			return fmt.Errorf("chunk %d does not carry its entries' encoding", ci)
		}
		n, live = n+len(c.entries), live+cl
	}
	if s.n != n || s.live != live || n != len(want.Entries) {
		return fmt.Errorf("totals n=%d live=%d, chunks add up to %d, %d; flat has %d entries", s.n, s.live, n, live, len(want.Entries))
	}
	if err := checkLayout(s); err != nil {
		return err
	}
	raw := s.AppendEncoded(nil)
	if back, err := DecodeDir(raw); err != nil || !sameEntries(back.Entries, want.Entries) {
		return fmt.Errorf("the snapshot's encoding decodes to %+v, %v", back, err)
	}
	if again, err := DecodeDirSnapshot(nil, raw); err != nil || !bytes.Equal(again.AppendEncoded(nil), raw) {
		return fmt.Errorf("the snapshot's encoding does not decode to a snapshot of the same bytes: %v", err)
	}
	var paged []byte
	for pn := 0; pn < pagesOf(len(raw)); pn++ {
		if paged = s.AppendPage(paged, pn); len(paged) != (pn+1)*PageSize {
			return fmt.Errorf("page %d is %d bytes", pn, len(paged)-pn*PageSize)
		}
	}
	if !bytes.Equal(paged[:len(raw)], raw) || slices.ContainsFunc(paged[len(raw):], func(b byte) bool { return b != 0 }) {
		return fmt.Errorf("the pages do not assemble to the encoding")
	}
	got, wantLive := s.Live(), want.Live()
	if !sameEntries(got, wantLive) || cap(got) != len(wantLive) || s.HasLive() != (len(wantLive) > 0) {
		return fmt.Errorf("Live = %v (cap %d), HasLive = %v; flat has %v", got, cap(got), s.HasLive(), wantLive)
	}
	return nil
}

// checkLayout checks the page layout a snapshot keeps: every block
// starts on the page after the ones its predecessor takes, holds one
// entry or fits in a page, and the encoding ends where the last ends.
func checkLayout(s *DirSnapshot) error {
	if len(s.chunks) == 0 {
		return nil
	}
	pg := 0
	for lo := 0; lo < len(s.chunks); {
		_, hi := s.block(lo)
		n := 0
		for _, c := range s.chunks[lo:hi] {
			n += len(c.entries)
		}
		size := s.blockSize(lo, hi)
		switch {
		case int(s.chunks[lo].page) != pg:
			return fmt.Errorf("chunk %d's block starts on page %d, want %d", lo, s.chunks[lo].page, pg)
		case n > 1 && size > PageSize:
			return fmt.Errorf("the block on page %d holds %d entries in %d bytes", pg, n, size)
		case hi == len(s.chunks) && s.size != pg*PageSize+size:
			return fmt.Errorf("the encoding is %d bytes, its last block ends at %d", s.size, pg*PageSize+size)
		}
		pg += pagesOf(size)
		lo = hi
	}
	return nil
}

func sameEntry(a, b DirEntry) bool {
	return a.Name == b.Name && a.Inode == b.Inode && a.Deleted == b.Deleted && a.DelVV.Equal(b.DelVV)
}

func sameEntries(a, b []DirEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameEntry(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkLookups compares the two searches pathname resolution makes, for
// each name and for its nearest non-names on either side.
func checkLookups(s *DirSnapshot, want *Directory, names ...string) error {
	for _, name := range names {
		for _, q := range []string{name, name + "\x00", name[:max(len(name)-1, 0)]} {
			ge, gok := s.Lookup(q)
			we, wok := want.Lookup(q)
			if gok != wok || !sameEntry(ge, we) {
				return fmt.Errorf("Lookup(%q) = %+v, %v; flat says %+v, %v", q, ge, gok, we, wok)
			}
			ge, gok = s.LookupAny(q)
			we, wok = want.LookupAny(q)
			if gok != wok || !sameEntry(ge, we) {
				return fmt.Errorf("LookupAny(%q) = %+v, %v; flat says %+v, %v", q, ge, gok, we, wok)
			}
		}
	}
	return nil
}

func allNames(d *Directory) []string {
	names := make([]string, len(d.Entries))
	for i, e := range d.Entries {
		names[i] = e.Name
	}
	return names
}

func mustSnapshot(t testing.TB, d *Directory) *DirSnapshot {
	t.Helper()
	return mustDecodeSnapshot(t, EncodeDir(d))
}

func mustDecodeSnapshot(t testing.TB, raw []byte) *DirSnapshot {
	t.Helper()
	s, err := DecodeDirSnapshot(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// decodeAgainst decodes a copy of raw against prev, checks the result in
// full against the flat directory raw encodes, then scribbles over the
// copy and checks again: the snapshot kept none of it.
func decodeAgainst(prev *DirSnapshot, raw []byte, want *Directory) (*DirSnapshot, error) {
	buf := bytes.Clone(raw)
	s, err := DecodeDirSnapshot(prev, buf)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 2; pass++ {
		if err := checkSnapshot(s, want); err != nil {
			return nil, fmt.Errorf("pass %d: %w", pass, err)
		}
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	return s, nil
}

// sharedChunks counts the chunks of s that are chunks of prev, or the
// pieces a block boundary cut them into: slices of the same entry array,
// not equal entries.
func sharedChunks(s, prev *DirSnapshot) int {
	n := 0
	for _, c := range s.chunks {
	search:
		for _, p := range prev.chunks {
			for i := range p.entries {
				if &p.entries[i] == &c.entries[0] {
					n++
					break search
				}
			}
		}
	}
	return n
}

// TestSnapshotModel drives a snapshot and the flat Directory, as the
// oracle, through the same random inserts, removes, resurrections and
// verbatim replacements, and checks every intermediate snapshot in
// full. The name space is a few times chunkMax, so chunks fill, split
// and are searched at their edges; half the seeds start from a decoded
// multi-chunk directory rather than an empty one.
//
// Every step's bytes are also decoded the way a stale site decodes them,
// against the snapshot of one to five steps back, and against a snapshot
// that has nothing to do with them (one over the same names, one over
// others): whatever prev is, the result is the flat decode's. Now and
// then the model carries on from the decoded snapshot, as a site does
// that is stale and updating by turns.
func TestSnapshotModel(t *testing.T) {
	t.Parallel()
	const seeds, steps, names = 50, 300, 3 * chunkMax
	other := &Directory{}
	for i := 0; i < 2*chunkMax; i++ {
		other.Insert(fmt.Sprintf("g%03d", i), storage.InodeNum(1+i))
	}
	unrelated := []*DirSnapshot{mustSnapshot(t, shapedDir(names, 7)), mustSnapshot(t, other)}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		flat := &Directory{}
		if seed%2 == 1 {
			flat = shapedDir(2*chunkMax+int(seed), 5)
		}
		s := mustSnapshot(t, flat)
		history := []*DirSnapshot{s} // the last five snapshots, oldest first
		kept, decoded := 0, 0        // chunks of the stale decodes: shared with prev, new
		randVV := func() vclock.VV {
			var vv vclock.VV // an empty tombstone vector decodes as nil
			for i := r.Intn(4); i > 0; i-- {
				vv = vv.Bump(vclock.SiteID(1 + r.Intn(3)))
			}
			return vv
		}
		for step := 0; step < steps; step++ {
			name := fmt.Sprintf("f%05d", r.Intn(names))
			var op string
			switch k := r.Intn(10); {
			case k < 5:
				op = "insert"
				ino := 1 + randInode(r)
				flat.Insert(name, ino)
				s = s.Insert(name, ino)
			case k < 8:
				op = "remove"
				vv := randVV()
				removed := flat.Remove(name, vv)
				next, ok := s.Remove(name, vv)
				if ok != removed || (!ok && next != s) {
					t.Fatalf("seed %d step %d: Remove(%q) = %v, flat says %v", seed, step, name, ok, removed)
				}
				s = next
			default:
				op = "put"
				e := DirEntry{Name: name, Inode: 1 + randInode(r), Deleted: r.Intn(2) == 0}
				if e.Deleted {
					e.DelVV = randVV()
				}
				flat.PutRaw(e)
				s = s.put(e)
			}
			err := checkSnapshot(s, flat)
			if err == nil {
				// The touched name and two others every step, every name
				// now and then.
				probe := []string{name, fmt.Sprintf("f%05d", r.Intn(names)), fmt.Sprintf("f%05d", r.Intn(names))}
				if step%25 == 0 || step == steps-1 {
					probe = allNames(flat)
				}
				err = checkLookups(s, flat, probe...)
			}
			if err != nil {
				t.Fatalf("seed %d step %d (%s %q): %v", seed, step, op, name, err)
			}
			raw := s.AppendEncoded(nil)
			back, err := DecodeDir(raw)
			if err != nil || !sameEntries(back.Entries, flat.Entries) {
				t.Fatalf("seed %d step %d (%s %q): the encoding decodes to %+v, %v", seed, step, op, name, back, err)
			}
			prev := history[r.Intn(len(history))]
			stale, err := decodeAgainst(prev, raw, flat)
			if err != nil {
				t.Fatalf("seed %d step %d (%s %q): decoded against an earlier snapshot: %v", seed, step, op, name, err)
			}
			shared := sharedChunks(stale, prev)
			kept, decoded = kept+shared, decoded+len(stale.chunks)-shared
			if _, err := decodeAgainst(unrelated[step%2], raw, flat); err != nil {
				t.Fatalf("seed %d step %d (%s %q): decoded against an unrelated snapshot: %v", seed, step, op, name, err)
			}
			if step%7 == 0 {
				s = stale
			}
			if history = append(history, s); len(history) > 5 {
				history = history[1:]
			}
		}
		if seed%2 == 0 && len(s.chunks) < 2 {
			t.Fatalf("seed %d: %d entries never split a chunk", seed, s.n)
		}
		if kept < 100 || decoded < 100 {
			t.Fatalf("seed %d: the stale decodes kept %d chunks and decoded %d, want a hundred of each at least", seed, kept, decoded)
		}
	}
}

// TestSnapshotNeverChanges: once returned, a snapshot answers the same
// for ever, whatever is derived from it. Readers hammer one snapshot
// while the test derives a few thousand successors from it and from
// each other, by update and by decoding a successor's bytes against it;
// under -race a write into any shared chunk is a report, and without it
// the readers' comparisons catch a changed answer.
func TestSnapshotNeverChanges(t *testing.T) {
	t.Parallel()
	flat := shapedDir(1088, 17)
	s0 := mustSnapshot(t, flat)
	enc0, live0 := s0.AppendEncoded(nil), s0.Live()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			var buf []byte
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := flat.Entries[r.Intn(len(flat.Entries))]
				if got, ok := s0.LookupAny(e.Name); !ok || !sameEntry(got, e) {
					t.Errorf("reader %d: LookupAny(%q) = %+v, %v; want %+v", g, e.Name, got, ok, e)
					return
				}
				if i%64 == 0 {
					if buf = s0.AppendEncoded(buf[:0]); !bytes.Equal(buf, enc0) {
						t.Errorf("reader %d: the snapshot's encoding changed", g)
						return
					}
					if !sameEntries(s0.Live(), live0) {
						t.Errorf("reader %d: the snapshot's listing changed", g)
						return
					}
				}
			}
		}(g)
	}

	r := rand.New(rand.NewSource(99))
	vv := vclock.New().Bump(2)
	s, shared := s0, 0
	for i := 0; i < 4000; i++ {
		if i%500 == 0 {
			s = s0 // branch again from the shared snapshot
		}
		name := fmt.Sprintf("f%05d", r.Intn(1200))
		if next, ok := s.Remove(name, vv); ok {
			s = next
		} else {
			s = s.Insert(name, storage.InodeNum(5000+i))
		}
		if i%20 == 0 {
			// What a site holding s0 makes of s's bytes: s0's chunks where
			// the derivations so far left any alone.
			stale, err := DecodeDirSnapshot(s0, s.AppendEncoded(nil))
			if err != nil {
				t.Fatalf("derivation %d decoded against the shared snapshot: %v", i, err)
			}
			shared += sharedChunks(stale, s0)
			s = stale
		}
	}
	close(stop)
	if shared < 100 {
		t.Errorf("the decodes against the shared snapshot kept %d of its chunks in all", shared)
	}
	wg.Wait()
	if err := checkSnapshot(s0, flat); err != nil {
		t.Fatalf("the shared snapshot after 4000 derivations: %v", err)
	}
}

// TestSnapshotUpdateAllocationPins fixes what one directory update
// costs on the build_churn-shaped directory (1,088 entries, 64 of them
// tombstones): the new snapshot, its chunk table, the touched chunk's
// entries and their encoding — not the directory — and nothing at all
// to assemble the bytes to write, the encoding or a page of it, into a
// buffer that has been used before. EncodeDir fills the pages, so both
// updates overflow theirs and lay the pages after it out again, which
// moves chunks and copies no entry.
func TestSnapshotUpdateAllocationPins(t *testing.T) {
	// Every update copies the chunk table: a chunk is two slices and the
	// page and live count packed as two int32s.
	if size := unsafe.Sizeof(dirChunk{}); size != 56 {
		t.Errorf("a chunk is %d bytes, want 56", size)
	}
	s := mustSnapshot(t, shapedDir(1088, 17))
	vv := vclock.New().Bump(1).Bump(2).Bump(3)
	var sink *DirSnapshot
	for _, c := range []struct {
		what string
		op   func()
	}{
		{"insert", func() { sink = s.Insert("f00500x", 7) }},
		{"tombstone", func() { sink, _ = s.Remove("f00500", vv) }},
	} {
		if got := testing.AllocsPerRun(100, c.op); got > 8 {
			t.Errorf("one %s allocates %v times, want at most 8", c.what, got)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			c.op()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 8<<10 {
			t.Errorf("one %s allocates %d bytes, want at most 8 KB", c.what, got)
		}
		if sink.n < s.n || sink == s {
			t.Fatalf("the pinned %s did not produce a new snapshot", c.what)
		}
	}
	buf := s.AppendEncoded(nil)
	if got := testing.AllocsPerRun(100, func() { buf = sink.AppendEncoded(buf[:0]) }); got != 0 {
		t.Errorf("assembling the encoding into a used buffer allocates %v times, want 0", got)
	}
	page := make([]byte, 0, PageSize)
	if got := testing.AllocsPerRun(100, func() { page = sink.AppendPage(page[:0], 1) }); got != 0 {
		t.Errorf("assembling a page into a used buffer allocates %v times, want 0", got)
	}
}

// staleCase is what a stale site is handed: the bytes of the build_churn
// directory (1,088 entries, 64 tombstones) after updates in `touched` of
// its chunks, far enough apart that each is a gap of its own, and the
// snapshot it holds from before them.
func staleCase(t testing.TB, touched int) (prev *DirSnapshot, raw []byte, want *Directory) {
	want = shapedDir(1088, 17)
	prev = mustSnapshot(t, want)
	next := prev
	vv := vclock.New().Bump(1).Bump(2).Bump(3)
	for i := 0; i < touched; i++ {
		// Chunks 1, 5, 9 and 13: a create in one, an unlink in the next.
		name := fmt.Sprintf("f%05d", chunkMax*(1+4*i)+10)
		if i%2 == 0 {
			name += "x"
			want.Insert(name, 7)
			next = next.Insert(name, 7)
		} else {
			want.Remove(name, vv)
			next, _ = next.Remove(name, vv)
		}
	}
	return prev, next.AppendEncoded(nil), want
}

// TestStaleDecodeAllocationPins fixes what a stale site pays to catch up
// with an update that touched one chunk, or two: the snapshot, its chunk
// table and, per gap, the entries, one string for their names, their
// encoding and a backing array for tombstone vectors — not the 61 KB of
// entries and 21 KB of names and encoding a cold decode of this
// directory allocates.
func TestStaleDecodeAllocationPins(t *testing.T) {
	var sink *DirSnapshot
	for _, c := range []struct {
		touched          int
		maxAllocs, maxKB uint64
	}{{1, 6, 7}, {2, 10, 13}} {
		prev, raw, want := staleCase(t, c.touched)
		op := func() { sink, _ = DecodeDirSnapshot(prev, raw) }
		if got := testing.AllocsPerRun(100, op); got > float64(c.maxAllocs) {
			t.Errorf("%d touched: the decode allocates %v times, want at most %d", c.touched, got, c.maxAllocs)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > c.maxKB<<10 {
			t.Errorf("%d touched: the decode allocates %d bytes, want at most %d KB", c.touched, got, c.maxKB)
		}
		if err := checkSnapshot(sink, want); err != nil {
			t.Fatalf("%d touched: the pinned decode: %v", c.touched, err)
		}
		// The insert lays the pages after its own out again: the chunks a
		// moved block boundary cut are shared in pieces.
		if got := len(sink.chunks) - sharedChunks(sink, prev); got != c.touched {
			t.Errorf("%d touched: the decode made %d of its %d chunks anew, want %d", c.touched, got, len(sink.chunks), c.touched)
		}
	}
}

// sameDecode checks that DecodeDirSnapshot, against prev, and DecodeDir
// say the same of raw: both refuse it as corrupt, or both accept it and
// the snapshot is the flat directory. It reports whether they accepted.
func sameDecode(prev *DirSnapshot, raw []byte) (bool, error) {
	d, derr := DecodeDir(raw)
	s, serr := DecodeDirSnapshot(prev, raw)
	if derr != nil || serr != nil {
		if !errors.Is(derr, ErrCorrupt) || !errors.Is(serr, ErrCorrupt) {
			return false, fmt.Errorf("DecodeDir says %v, DecodeDirSnapshot says %v", derr, serr)
		}
		return false, nil
	}
	return true, checkSnapshot(s, d)
}

// TestStaleDecodeTornReads: an unsynchronized read (§2.3.4) can return
// the new version's bytes up to some point and the old version's after
// it. Against either version's snapshot the decoder must refuse exactly
// the mixtures DecodeDir refuses, so that readDirByID reads again, and
// where a mixture happens to be a directory, decode that directory and
// not the one it holds chunks of. Cuts: every page boundary and 1,000
// random offsets, for an update that moves every later byte (a create
// and two unlinks) and for one that moves none (three inode numbers
// replaced by others as wide, so every mixture decodes).
func TestStaleDecodeTornReads(t *testing.T) {
	t.Parallel()
	old := shapedDir(1088, 17)
	oldSnap := mustSnapshot(t, old)
	vv := vclock.New().Bump(2)
	moved, _ := oldSnap.Insert("f00100x", 7).Remove("f00500", vv)
	moved, _ = moved.Remove("f00900", vv)
	inPlace := oldSnap.Insert("f00100", 101).Insert("f00500", 300).Insert("f00900", 301)
	for _, c := range []struct {
		what       string
		next       *DirSnapshot
		wantAccept bool
	}{{"an update that moves the bytes after it", moved, false}, {"an update in place", inPlace, true}} {
		oldRaw, newRaw := oldSnap.AppendEncoded(nil), c.next.AppendEncoded(nil)
		if c.wantAccept != (len(oldRaw) == len(newRaw)) {
			t.Fatalf("%s: %d bytes became %d", c.what, len(oldRaw), len(newRaw))
		}
		r := rand.New(rand.NewSource(1))
		cuts := []int{len(newRaw)}
		for cut := 0; cut < len(newRaw); cut += storage.PageSize {
			cuts = append(cuts, cut)
		}
		for i := 0; i < 1000; i++ {
			cuts = append(cuts, r.Intn(len(newRaw)+1))
		}
		accepted := 0
		for _, cut := range cuts {
			torn := append(bytes.Clone(newRaw[:cut]), oldRaw[min(cut, len(oldRaw)):]...)
			for _, prev := range []*DirSnapshot{oldSnap, c.next} {
				ok, err := sameDecode(prev, torn)
				if err != nil {
					t.Fatalf("%s, cut at %d: %v", c.what, cut, err)
				}
				if ok {
					accepted++
				}
			}
		}
		// The cuts at 0 and at the end are whole versions and always decode.
		if all := 2 * len(cuts); (accepted == all) != c.wantAccept || accepted < 4 {
			t.Errorf("%s: %d of %d torn reads decoded", c.what, accepted, all)
		}
	}
}

// TestStaleDecodeRejectsMalformed puts each malformed case behind 200
// well-formed entries the stale snapshot holds, so that the decoder has
// kept four chunks by the time it meets it: a defect in the header, in
// the entry after a kept chunk, or in the count that chunk runs into is
// refused as it is cold. A case of more than a page breaks the layout
// of twoPages, and is decoded against the snapshot of twoPages, whose
// chunks it holds up to its defect.
func TestStaleDecodeRejectsMalformed(t *testing.T) {
	paged := mustDecodeSnapshot(t, twoPages)
	held := &Directory{}
	for i := 0; i < 200; i++ {
		held.Insert(fmt.Sprintf("Z%03d", i), storage.InodeNum(1+i)) // sorts before the cases' "a" and "b"
	}
	prev := mustSnapshot(t, held)
	body := appendEntries(nil, held.Entries)
	behind := func(raw []byte) []byte {
		_, k := binary.Uvarint(raw)
		count, k2 := binary.Uvarint(raw[k:])
		if hdr := raw[:k+k2]; !bytes.Equal(hdr, appendPageHeader(nil, 0, int(count))) || count > 2 {
			// The header is the defect: keep it.
			return append(append(bytes.Clone(hdr), body...), raw[k+k2:]...)
		}
		return append(append(appendPageHeader(nil, 0, 200+int(count)), body...), raw[k+k2:]...)
	}
	for _, c := range malformedDirs {
		if len(c.raw) > PageSize {
			if s, err := DecodeDirSnapshot(paged, c.raw); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: against the snapshot of the pages it breaks, DecodeDirSnapshot = %+v, %v; want ErrCorrupt", c.name, s, err)
			}
			continue
		}
		raw := behind(c.raw)
		if d, err := DecodeDir(raw); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: behind 200 entries DecodeDir = %+v, %v; want ErrCorrupt", c.name, d, err)
		}
		if s, err := DecodeDirSnapshot(prev, raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: behind 200 entries the stale snapshot holds, DecodeDirSnapshot = %+v, %v; want ErrCorrupt", c.name, s, err)
		}
	}
	// The same construction around a sound entry decodes, on kept chunks.
	held.Insert("a", 1)
	s, err := DecodeDirSnapshot(prev, behind(rawDir(1, rawEntry{name: "a", ino: 1})))
	if err != nil || checkSnapshot(s, held) != nil || sharedChunks(s, prev) != len(prev.chunks) {
		t.Fatalf("a sound entry behind 200 held ones: %v, %v, %d chunks shared", err, checkSnapshot(s, held), sharedChunks(s, prev))
	}
	// One entry fewer than the kept chunks hold: the last chunk overshoots
	// the declared count.
	if ok, err := sameDecode(prev, append(appendPageHeader(nil, 0, 199), body...)); ok || err != nil {
		t.Fatalf("a count of 199 over 200 held entries: accepted %v, %v", ok, err)
	}
}

// BenchmarkDecodeStale is the stale-site row of the per-layer ledger
// (ROADMAP): what dirCache.load pays when another site's update touched
// 1, 2 or 4 of the chunks of the build_churn directory, beside the
// cold decode of the same bytes.
func BenchmarkDecodeStale(b *testing.B) {
	for _, touched := range []int{0, 1, 2, 4} {
		prev, raw, _ := staleCase(b, touched)
		name := fmt.Sprint(touched)
		if touched == 0 {
			prev, name = nil, "cold"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				sinkSnap, _ = DecodeDirSnapshot(prev, raw)
			}
		})
	}
}

var sinkSnap *DirSnapshot

// BenchmarkUpdateDir is the updateDir row of the per-layer ledger
// (ROADMAP): what fs.updateDir does to a cached directory for a create
// and for an unlink — derive the next snapshot, assemble the bytes to
// write — at 16, 256 and 4k entries, one in sixteen a tombstone.
func BenchmarkUpdateDir(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		s := mustSnapshot(b, shapedDir(n, 16))
		name := fmt.Sprintf("f%05dx", n/2)
		vv := vclock.New().Bump(1).Bump(2).Bump(3)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				ins := s.Insert(name, 7)
				buf = ins.AppendEncoded(buf[:0])
				del, _ := ins.Remove(name, vv)
				buf = del.AppendEncoded(buf[:0])
			}
			b.SetBytes(2 * int64(len(buf)))
			sinkBytes = buf
		})
	}
}

// TestSnapshotPagesModel drives snapshots of a directory of several
// pages through random inserts, removes and resurrections, with names of
// all lengths, now and then one longer than a page, and checks each step
// in full against the flat directory. Two things a page-by-page update
// (fs.updateDir) rests on are checked besides:
//
//   - PagesChanged lists every page whose bytes the step changed: the
//     pages it leaves out are byte for byte the previous snapshot's, so
//     writing the listed pages onto the previous bytes yields the new.
//   - The layout is the previous layout's and the step's alone, not the
//     chunks': the step applied to a snapshot decoded cold from the
//     previous bytes, chunked otherwise, yields the same bytes. A using
//     site that re-applies its own update to its snapshot holds what the
//     CSS wrote.
//
// And it checks that a step writes few pages of the three to five the
// directory takes, where the flat encoding rewrote all of them: at most
// 1.3 on average, the long names' re-layouts included.
func TestSnapshotPagesModel(t *testing.T) {
	t.Parallel()
	const seeds, steps = 10, 300
	pages, updates := 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		flat := shapedDir(600+int(seed)*40, 11)
		s := mustSnapshot(t, flat)
		raw := s.AppendEncoded(nil)
		name := func() string {
			n := fmt.Sprintf("f%05d", r.Intn(900))
			switch k := r.Intn(100); {
			case k == 0:
				n += strings.Repeat("L", PageSize-200+r.Intn(2*PageSize))
			case k < 20:
				n += strings.Repeat("m", r.Intn(60))
			}
			return n
		}
		for step := 0; step < steps; step++ {
			n := name()
			var op func(*DirSnapshot) *DirSnapshot
			if _, live := flat.Lookup(n); live && r.Intn(2) == 0 {
				vv := vclock.New().Bump(vclock.SiteID(1 + r.Intn(3)))
				flat.Remove(n, vv)
				op = func(d *DirSnapshot) *DirSnapshot { d, _ = d.Remove(n, vv); return d }
			} else {
				ino := 1 + randInode(r)
				flat.Insert(n, ino)
				op = func(d *DirSnapshot) *DirSnapshot { return d.Insert(n, ino) }
			}
			next := op(s)
			if err := checkSnapshot(next, flat); err != nil {
				t.Fatalf("seed %d step %d (%.12q): %v", seed, step, n, err)
			}
			nextRaw := next.AppendEncoded(nil)
			changed := next.PagesChanged(s)
			patched := padTo(bytes.Clone(raw[:min(len(raw), len(nextRaw))]), pagesOf(len(nextRaw))*PageSize)
			for _, pn := range changed {
				copy(patched[pn*PageSize:], next.AppendPage(nil, pn))
			}
			if !bytes.Equal(patched[:len(nextRaw)], nextRaw) {
				t.Fatalf("seed %d step %d (%.12q): the previous bytes with pages %v written are not the new bytes", seed, step, n, changed)
			}
			if again := op(mustDecodeSnapshot(t, raw)).AppendEncoded(nil); !bytes.Equal(again, nextRaw) {
				t.Fatalf("seed %d step %d (%.12q): the step on a snapshot decoded from the previous bytes lays out otherwise", seed, step, n)
			}
			pages, updates = pages+len(changed), updates+1
			s, raw = next, nextRaw
		}
	}
	avg := float64(pages) / float64(updates)
	t.Logf("a step writes %.3f pages on average", avg)
	if avg > 1.3 {
		t.Errorf("a step writes %.3f pages on average, want at most 1.3", avg)
	}
}
