package format

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// Robustness: decoding arbitrary bytes must never panic and never
// return a half-valid structure silently — either a clean error or a
// structurally sound value. Directory pages travel over the simulated
// wire and through reconciliation, so the decoder is a trust boundary.

func TestDecodeDirNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, int(n))
		r.Read(b) //nolint:errcheck // math/rand never fails
		d, err := DecodeDir(b)
		if err != nil {
			return true
		}
		return checkDecoded(d) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// checkDecoded states what every successful DecodeDir owes its caller:
// names strictly ascending (Lookup's binary search depends on it, and
// it makes them unique), every name found by LookupAny, and a re-encode
// that decodes to the same directory.
func checkDecoded(d *Directory) error {
	for i, e := range d.Entries {
		if i > 0 && d.Entries[i-1].Name >= e.Name {
			return fmt.Errorf("entry %d %q does not sort after %q", i, e.Name, d.Entries[i-1].Name)
		}
		if got, ok := d.LookupAny(e.Name); !ok || got.Inode != e.Inode {
			return fmt.Errorf("LookupAny(%q) = %+v, %v", e.Name, got, ok)
		}
	}
	again, err := DecodeDir(EncodeDir(d))
	if err != nil {
		return fmt.Errorf("re-encoded directory does not decode: %w", err)
	}
	if !reflect.DeepEqual(again, d) {
		return errors.New("re-encoded directory decodes differently")
	}
	return nil
}

// shapedDir builds an n-entry directory whose every stride-th entry is
// a tombstone carrying a three-site vector. shapedDir(1088, 17) is the
// benchmark's build_churn directory: 1,088 entries, 64 tombstones.
func shapedDir(n, stride int) *Directory {
	d := &Directory{Entries: make([]DirEntry, 0, n)}
	for i := 0; i < n; i++ {
		e := DirEntry{Name: fmt.Sprintf("f%05d", i), Inode: storage.InodeNum(2 + i)}
		if i%stride == 0 {
			e.Deleted = true
			e.DelVV = vclock.New().Bump(1).Bump(2).Bump(3)
			for c := i % 200; c > 0; c -= 40 {
				e.DelVV = e.DelVV.Bump(vclock.SiteID(1 + i%3))
			}
		}
		d.Entries = append(d.Entries, e)
	}
	return d
}

// rawEntry is a directory entry as bytes on a page, written by rawDir
// with none of EncodeDir's guarantees.
type rawEntry struct {
	name string
	ino  uint64
	flag byte
	vv   []uint64 // site, count pairs; written only when flag != 0
}

func rawDir(count uint64, entries ...rawEntry) []byte { return rawBlock(0, count, entries...) }

// rawBlock is the block that starts page pg, as rawDir writes it: the
// page header (the magic first on page 0) with count, then the entries.
func rawBlock(pg int, count uint64, entries ...rawEntry) []byte {
	var b []byte
	if pg == 0 {
		b = binary.AppendUvarint(b, dirMagic)
	}
	b = binary.AppendUvarint(b, count)
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(len(e.name)))
		b = append(b, e.name...)
		b = binary.AppendUvarint(b, e.ino)
		b = append(b, e.flag)
		if e.flag != 0 {
			b = binary.AppendUvarint(b, uint64(len(e.vv)/2))
			for _, x := range e.vv {
				b = binary.AppendUvarint(b, x)
			}
		}
	}
	return b
}

// rawPages lays blocks out on consecutive pages, each padded with zeros
// to the page's end but the last.
func rawPages(blocks ...[]byte) []byte {
	var b []byte
	for i, blk := range blocks {
		if i > 0 {
			b = padTo(b, pagesOf(len(b))*PageSize)
		}
		b = append(b, blk...)
	}
	return b
}

// wide is entries i to j of a run whose 103-byte entries (a 100-byte
// name) put 39 on page 0 and one more past its end.
func wide(i, j int) []rawEntry {
	var es []rawEntry
	for ; i < j; i++ {
		es = append(es, rawEntry{name: fmt.Sprintf("w%03d", i) + strings.Repeat("-", 96), ino: uint64(1 + i)})
	}
	return es
}

// twoPages is the well-formed directory the page cases of malformedDirs
// break: 39 wide entries on page 0, one on page 1.
var twoPages = rawPages(rawBlock(0, 39, wide(0, 39)...), rawBlock(1, 1, wide(39, 40)...))

func setLast(b []byte, x byte) []byte {
	b[len(b)-1] = x
	return b
}

// malformedDirs are inputs that parse as length-prefixed records but
// are not the encoding of any directory.
var malformedDirs = []struct {
	name string
	raw  []byte
}{
	{"count-2^40-in-12-bytes", append(rawDir(1<<40), 0, 0, 0)},
	{"count-one-more-than-present", rawDir(2, rawEntry{name: "a", ino: 1})},
	{"delete-flag-2", rawDir(1, rawEntry{name: "a", ino: 1, flag: 2, vv: []uint64{1, 1}})},
	{"delete-flag-0xff", rawDir(1, rawEntry{name: "a", ino: 1, flag: 0xff})},
	{"names-descending", rawDir(2, rawEntry{name: "b", ino: 1}, rawEntry{name: "a", ino: 2})},
	{"names-duplicate", rawDir(2, rawEntry{name: "a", ino: 1}, rawEntry{name: "a", ino: 2})},
	{"tombstone-sites-unsorted", rawDir(1, rawEntry{name: "a", ino: 1, flag: 1, vv: []uint64{2, 1, 1, 1}})},
	{"tombstone-sites-duplicate", rawDir(1, rawEntry{name: "a", ino: 1, flag: 1, vv: []uint64{2, 1, 2, 1}})},
	{"tombstone-zero-count", rawDir(1, rawEntry{name: "a", ino: 1, flag: 1, vv: []uint64{2, 0}})},
	{"tombstone-width-beyond-input", setLast(rawDir(1, rawEntry{name: "a", ino: 1, flag: 1}), 0x7f)},
	{"bytes-after-last-entry", append(rawDir(1, rawEntry{name: "a", ino: 1}), 0)},
	// The same values with a uvarint one byte longer than it need be.
	{"count-padded", append(binary.AppendUvarint(nil, dirMagic), 0x80, 0x00)},
	{"name-length-padded", append(rawDir(1), 0x81, 0x00, 'a', 1, 0)},
	{"inode-padded", append(rawDir(1), 1, 'a', 0x81, 0x00, 0)},
	{"tombstone-count-padded", append(rawDir(1), 1, 'a', 1, 1, 0x81, 0x00, 2, 1)},
	// The page layout: twoPages, broken.
	{"entry-straddles-page", rawBlock(0, 40, wide(0, 40)...)},
	{"page-padding-nonzero", setAt(bytes.Clone(twoPages), PageSize-1, 1)},
	{"page-padding-at-end", padTo(rawBlock(0, 39, wide(0, 39)...), PageSize)},
	{"page-empty-not-last", rawPages(rawBlock(0, 39, wide(0, 39)...), rawBlock(1, 0), rawBlock(2, 1, wide(39, 40)...))},
	{"page-count-short", rawPages(rawBlock(0, 38, wide(0, 39)...), rawBlock(1, 1, wide(39, 40)...))},
	{"page-count-long", rawPages(rawBlock(0, 40, wide(0, 39)...), rawBlock(1, 1, wide(39, 40)...))},
	{"page-count-zero", rawPages(rawBlock(0, 0), rawBlock(1, 1, wide(39, 40)...))},
}

func setAt(b []byte, i int, x byte) []byte {
	b[i] = x
	return b
}

func TestDecodeDirRejectsMalformed(t *testing.T) {
	for _, c := range malformedDirs {
		if d, err := DecodeDir(c.raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeDir(%x) = %+v, %v; want ErrCorrupt", c.name, c.raw, d, err)
		}
	}
	if n := len(malformedDirs[0].raw); n != 12 {
		t.Fatalf("the 2^40 case is %d bytes, want 12", n)
	}
	// What the page cases break is a directory.
	if d, err := DecodeDir(twoPages); err != nil || len(d.Entries) != 40 {
		t.Fatalf("the two pages the page cases break decode to %d entries, %v", len(d.Entries), err)
	}
	// A declared count is refused before anything is sized from it: 2^20
	// entries would be a 56 MB slice, and rejecting them allocates no
	// more than the Directory header and the error value.
	big := rawDir(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeDir(big)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeDir of a 2^20 count in %d bytes = %v, want ErrCorrupt", len(big), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
		t.Errorf("rejecting a count of 2^20 allocated %d bytes", grew)
	}
}

// FuzzDecodeDir is the native fuzz target for the directory decoders.
// The second input is the directory a stale site holds: where it
// decodes, raw is also decoded against its snapshot, and whatever the
// two have to do with each other the answer is the flat decoder's. The
// seed corpus is the build_churn-shaped directory before and after an
// update, small valid directories and every malformed case above, each
// against itself, against nothing and against the big directory, and
// directories of three pages laid out as only updates lay them out; `go
// test` runs the seeds, `make fuzzsmoke` (`go test -fuzz FuzzDecodeDir
// -fuzzminimizetime 20x ./internal/format`, for 15 s) explores from them
// (with the default minute of minimizing per new input, two 11 KB seeds
// keep the workers minimizing and a 30 s run executes a few dozen
// inputs, not a million).
func FuzzDecodeDir(f *testing.F) {
	big := shapedDir(1088, 17)
	bigRaw := EncodeDir(big)
	big.Insert("f00500x", 7)
	big.Remove("f00900", vclock.New().Bump(2))
	f.Add(bigRaw, EncodeDir(big))
	f.Add(EncodeDir(big), bigRaw)
	for _, raw := range [][]byte{EncodeDir(shapedDir(3, 2)), EncodeDir(&Directory{}), nil} {
		f.Add(raw, bigRaw)
		f.Add(raw, raw)
	}
	for _, c := range malformedDirs {
		f.Add(c.raw, []byte(nil))
		f.Add(c.raw, c.raw)
		f.Add(c.raw, bigRaw)
	}
	// Three pages laid out otherwise than EncodeDir would: the big
	// directory after an insert on its full first page laid it out again,
	// and an entry longer than a page between two short ones.
	relaid := mustSnapshot(f, shapedDir(1088, 17)).Insert("f00010x", 7).AppendEncoded(nil)
	f.Add(relaid, bigRaw)
	f.Add(bigRaw, relaid)
	long := EncodeDir(longDir())
	f.Add(long, []byte(nil))
	f.Add(long, long)
	f.Add(twoPages, long)
	f.Fuzz(func(t *testing.T, raw, held []byte) {
		prev, _ := DecodeDirSnapshot(nil, held) // nil if held does not decode: the cold decode
		d, err := DecodeDir(raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeDir failed with %v, want an ErrCorrupt", err)
			}
			if s, err := DecodeDirSnapshot(prev, raw); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeDirSnapshot = %+v, %v on bytes DecodeDir refuses", s, err)
			}
			return
		}
		if err := checkDecoded(d); err != nil {
			t.Fatal(err)
		}
		// What decodes has exactly one encoding, the input, and both
		// forms of the directory reproduce it.
		for _, prev := range []*DirSnapshot{prev, nil} {
			s, err := DecodeDirSnapshot(prev, raw)
			if err != nil {
				t.Fatalf("DecodeDirSnapshot fails with %v on bytes DecodeDir accepts", err)
			}
			if err := checkSnapshot(s, d); err != nil {
				t.Fatal(err)
			}
			if err := checkLookups(s, d, allNames(d)...); err != nil {
				t.Fatal(err)
			}
			if len(raw) > 0 && !bytes.Equal(s.AppendEncoded(nil), raw) {
				t.Fatal("decode, snapshot, encode does not reproduce the input")
			}
		}
	})
}

var (
	sinkDir   *Directory
	sinkBytes []byte
)

// TestCodecAllocationPins fixes the codec's allocation counts on the
// build_churn-shaped directory: an encode is its result and nothing
// else; a decode is the Directory, its entries, one string holding
// every name, and a few backing arrays for the tombstone vectors.
func TestCodecAllocationPins(t *testing.T) {
	d := shapedDir(1088, 17)
	raw := EncodeDir(d)
	if got := testing.AllocsPerRun(20, func() { sinkBytes = EncodeDir(d) }); got != 1 {
		t.Errorf("EncodeDir allocates %v times, want 1", got)
	}
	if cap(sinkBytes) != len(sinkBytes) {
		t.Errorf("EncodeDir sized its buffer %d for %d bytes", cap(sinkBytes), len(sinkBytes))
	}
	if got := testing.AllocsPerRun(20, func() { sinkDir, _ = DecodeDir(raw) }); got > 8 {
		t.Errorf("DecodeDir allocates %v times, want at most 8", got)
	}
	if !reflect.DeepEqual(sinkDir, d) {
		t.Error("the pinned decode is not the directory that was encoded")
	}
}

// The codec rows of the per-layer ledger (ROADMAP): 16, 256 and 4k
// entries, one in sixteen a tombstone.
func BenchmarkEncodeDir(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		d := shapedDir(n, 16)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkBytes = EncodeDir(d)
			}
			b.SetBytes(int64(len(sinkBytes)))
		})
	}
}

func BenchmarkDecodeDir(b *testing.B) {
	for _, n := range []int{16, 256, 4096} {
		raw := EncodeDir(shapedDir(n, 16))
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(raw)))
			for i := 0; i < b.N; i++ {
				sinkDir, _ = DecodeDir(raw)
			}
		})
	}
}

func TestDecodeMailboxNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		b := make([]byte, int(n))
		r.Read(b) //nolint:errcheck // math/rand never fails
		m, err := DecodeMailbox(b)
		if err != nil {
			return true
		}
		b2 := EncodeMailbox(m)
		m2, err := DecodeMailbox(b2)
		if err != nil {
			return false
		}
		return len(m2.Messages) == len(m.Messages)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDirTruncationsAllFailCleanly(t *testing.T) {
	d := &Directory{}
	d.Insert("some-name", 42)
	d.Insert("another", 7)
	d.Remove("another", nil)
	enc := EncodeDir(d)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeDir(enc[:cut]); err == nil {
			// A truncation that still decodes must decode a prefix of
			// the entries, never garbage; with our length-prefixed
			// format every strict prefix must fail.
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(enc))
		}
	}
}
