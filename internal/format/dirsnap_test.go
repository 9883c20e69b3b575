package format

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// checkSnapshot states what a snapshot owes its readers, against the
// flat directory holding the same entries: chunks within their size
// bounds and in order, each carrying exactly its entries' encoding and
// live count, totals that add up, the flat form's encoding byte for
// byte and its live listing in a slice of exactly that size.
func checkSnapshot(s *DirSnapshot, want *Directory) error {
	var n, live, encLen int
	prev := ""
	for ci, c := range s.chunks {
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
		if c.live != cl {
			return fmt.Errorf("chunk %d counts %d live entries, has %d", ci, c.live, cl)
		}
		if !bytes.Equal(c.enc, appendEntries(nil, c.entries)) {
			return fmt.Errorf("chunk %d does not carry its entries' encoding", ci)
		}
		n, live, encLen = n+len(c.entries), live+cl, encLen+len(c.enc)
	}
	if s.n != n || s.live != live || s.encLen != encLen {
		return fmt.Errorf("totals n=%d live=%d encLen=%d, chunks add up to %d, %d, %d", s.n, s.live, s.encLen, n, live, encLen)
	}
	if !bytes.Equal(s.AppendEncoded(nil), EncodeDir(want)) {
		return fmt.Errorf("snapshot encodes differently from the flat directory")
	}
	got, wantLive := s.Live(), want.Live()
	if !sameEntries(got, wantLive) || cap(got) != len(wantLive) || s.HasLive() != (len(wantLive) > 0) {
		return fmt.Errorf("Live = %v (cap %d), HasLive = %v; flat has %v", got, cap(got), s.HasLive(), wantLive)
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
	s, err := DecodeDirSnapshot(EncodeDir(d))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSnapshotModel drives a snapshot and the flat Directory, as the
// oracle, through the same random inserts, removes, resurrections and
// verbatim replacements, and checks every intermediate snapshot in
// full. The name space is a few times chunkMax, so chunks fill, split
// and are searched at their edges; half the seeds start from a decoded
// multi-chunk directory rather than an empty one.
func TestSnapshotModel(t *testing.T) {
	t.Parallel()
	const seeds, steps, names = 50, 300, 3 * chunkMax
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		flat := &Directory{}
		if seed%2 == 1 {
			flat = shapedDir(2*chunkTarget+int(seed), 5)
		}
		s := mustSnapshot(t, flat)
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
			back, err := DecodeDir(s.AppendEncoded(nil))
			if err != nil || !sameEntries(back.Entries, flat.Entries) {
				t.Fatalf("seed %d step %d (%s %q): the encoding decodes to %+v, %v", seed, step, op, name, back, err)
			}
		}
		if seed%2 == 0 && len(s.chunks) < 2 {
			t.Fatalf("seed %d: %d entries never split a chunk", seed, s.n)
		}
	}
}

// TestSnapshotNeverChanges: once returned, a snapshot answers the same
// for ever, whatever is derived from it. Readers hammer one snapshot
// while the test derives a few thousand successors from it and from
// each other; under -race a write into any shared chunk is a report,
// and without it the readers' comparisons catch a changed answer.
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
	s := s0
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
	}
	close(stop)
	wg.Wait()
	if err := checkSnapshot(s0, flat); err != nil {
		t.Fatalf("the shared snapshot after 4000 derivations: %v", err)
	}
}

// TestSnapshotUpdateAllocationPins fixes what one directory update
// costs on the build_churn-shaped directory (1,088 entries, 64 of them
// tombstones): the new snapshot, its chunk table, the touched chunk's
// entries and their encoding — not the directory — and nothing at all
// to assemble the bytes to write into a buffer that has been used
// before.
func TestSnapshotUpdateAllocationPins(t *testing.T) {
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
}

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
