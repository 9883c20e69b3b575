package format

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/storage"
	"repro/internal/vclock"
)

func TestDirInsertLookupRemove(t *testing.T) {
	t.Parallel()
	d := &Directory{}
	d.Insert("bin", 2)
	d.Insert("etc", 3)
	d.Insert("abc", 4)

	if e, ok := d.Lookup("bin"); !ok || e.Inode != 2 {
		t.Fatalf("Lookup(bin) = %+v %v", e, ok)
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) should fail")
	}
	// Entries sorted by name.
	live := d.Live()
	if len(live) != 3 || live[0].Name != "abc" || live[1].Name != "bin" || live[2].Name != "etc" {
		t.Fatalf("Live = %+v", live)
	}

	vv := vclock.New().Bump(1)
	if !d.Remove("bin", vv) {
		t.Fatal("Remove(bin) failed")
	}
	if _, ok := d.Lookup("bin"); ok {
		t.Fatal("removed name still resolves")
	}
	// Tombstone retained with the delete-time VV.
	e, ok := d.LookupAny("bin")
	if !ok || !e.Deleted || !e.DelVV.Equal(vv) {
		t.Fatalf("tombstone = %+v %v", e, ok)
	}
	// Double remove reports false.
	if d.Remove("bin", vv) {
		t.Fatal("double remove should report false")
	}
	if d.Remove("never", vv) {
		t.Fatal("removing a missing name should report false")
	}
}

func TestDirInsertOverTombstoneResurrects(t *testing.T) {
	t.Parallel()
	d := &Directory{}
	d.Insert("f", 7)
	d.Remove("f", vclock.New())
	d.Insert("f", 9)
	e, ok := d.Lookup("f")
	if !ok || e.Inode != 9 || e.Deleted {
		t.Fatalf("resurrected entry = %+v %v", e, ok)
	}
}

func TestDirInsertReplaces(t *testing.T) {
	t.Parallel()
	d := &Directory{}
	d.Insert("f", 7)
	d.Insert("f", 8)
	if len(d.Entries) != 1 || d.Entries[0].Inode != 8 {
		t.Fatalf("entries = %+v", d.Entries)
	}
}

func TestDirEncodeDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	d := &Directory{}
	d.Insert("usr", 5)
	d.Insert("bin", 2)
	d.Insert("tmp", 11)
	d.Remove("tmp", vclock.New().Bump(3).Bump(3))

	got, err := DecodeDir(EncodeDir(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, d)
	}
}

func TestDecodeDirEmpty(t *testing.T) {
	t.Parallel()
	d, err := DecodeDir(nil)
	if err != nil || len(d.Entries) != 0 {
		t.Fatalf("empty decode: %v %v", d, err)
	}
}

func TestDecodeDirCorrupt(t *testing.T) {
	t.Parallel()
	for _, b := range [][]byte{{0xff}, {0x44}, []byte("garbage data here")} {
		if _, err := DecodeDir(b); err == nil {
			t.Fatalf("DecodeDir(%v) should fail", b)
		}
	}
	// Truncated valid prefix.
	d := &Directory{}
	d.Insert("some-name", 1)
	enc := EncodeDir(d)
	if _, err := DecodeDir(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated directory should fail to decode")
	}
}

func TestMailboxDeliverDeleteRoundTrip(t *testing.T) {
	t.Parallel()
	m := &Mailbox{}
	m.Deliver(Message{ID: "s2-1", From: "bob", Body: "hello"})
	m.Deliver(Message{ID: "s1-1", From: "alice", Body: "hi"})
	m.Deliver(Message{ID: "s1-1", From: "dup", Body: "dup"}) // idempotent

	live := m.Live()
	if len(live) != 2 || live[0].ID != "s1-1" || live[0].From != "alice" {
		t.Fatalf("Live = %+v", live)
	}
	if !m.Delete("s1-1") {
		t.Fatal("Delete failed")
	}
	if m.Delete("s1-1") {
		t.Fatal("double delete should report false")
	}
	if len(m.Live()) != 1 {
		t.Fatalf("Live after delete = %+v", m.Live())
	}
	// Redelivery over a tombstone stays deleted.
	m.Deliver(Message{ID: "s1-1", From: "alice", Body: "hi"})
	if len(m.Live()) != 1 {
		t.Fatal("delivery over tombstone must not resurrect")
	}

	got, err := DecodeMailbox(EncodeMailbox(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestDecodeMailboxEmptyAndCorrupt(t *testing.T) {
	t.Parallel()
	m, err := DecodeMailbox(nil)
	if err != nil || len(m.Messages) != 0 {
		t.Fatalf("empty decode: %v %v", m, err)
	}
	if _, err := DecodeMailbox([]byte{0x01, 0x02}); err == nil {
		t.Fatal("corrupt mailbox should fail")
	}
}

func TestValidName(t *testing.T) {
	t.Parallel()
	valid := []string{"a", "file.txt", "with space", "vax", "11-45"}
	invalid := []string{"", ".", "..", "a/b", "/"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func randomDir(r *rand.Rand) *Directory {
	d := &Directory{}
	n := r.Intn(10)
	names := []string{"a", "b", "c", "dir", "file", "x1", "x2", "mbox", "z", "deep"}
	for i := 0; i < n; i++ {
		name := names[r.Intn(len(names))]
		d.Insert(name, 1+randInode(r))
		if r.Intn(3) == 0 {
			var vv vclock.VV // an empty tombstone vector decodes as nil
			if r.Intn(2) == 0 {
				vv = vv.Bump(vclock.SiteID(1 + r.Intn(3)))
			}
			d.Remove(name, vv)
		}
	}
	return d
}

func randInode(r *rand.Rand) storage.InodeNum { return storage.InodeNum(r.Intn(1000)) }

func TestPropertyDirRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDir(r)
		got, err := DecodeDir(EncodeDir(d))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDirEntriesAlwaysSorted(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDir(r)
		for i := 1; i < len(d.Entries); i++ {
			if d.Entries[i-1].Name >= d.Entries[i].Name {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMailboxRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Mailbox{}
		for i := 0; i < r.Intn(12); i++ {
			id := string(rune('a'+r.Intn(6))) + "-" + string(rune('0'+r.Intn(10)))
			m.Deliver(Message{ID: id, From: "u", Body: "b"})
			if r.Intn(4) == 0 {
				m.Delete(id)
			}
		}
		got, err := DecodeMailbox(EncodeMailbox(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOnePageEncodingUnchanged: a directory of one page encodes as it
// did before directories were laid out in pages — the magic, the count,
// the entries — so every directory of the experiments but the big ones
// is byte for byte what it was. The bytes are pinned: a small directory
// with a tombstone, and the digest of the largest one-page
// build_churn-shaped directory, 400 entries in 4,047 bytes.
func TestOnePageEncodingUnchanged(t *testing.T) {
	d := &Directory{}
	d.Insert("bin", 2)
	d.Insert("etc", 3)
	d.Insert("tmp", 300)
	d.Remove("tmp", vclock.New().Bump(3).Bump(3))
	if got, want := fmt.Sprintf("%x", EncodeDir(d)), "c49801030362696e020003657463030003746d70ac0201010302"; got != want {
		t.Errorf("EncodeDir = %s, want %s", got, want)
	}
	raw := EncodeDir(shapedDir(400, 17))
	if got, want := fmt.Sprintf("%d %x", len(raw), sha256.Sum256(raw)), "4047 353031b1a7186efb31b062f8a083d23d68c08e99c2ebb4ef22ee76cac339c59b"; got != want {
		t.Errorf("the 400-entry directory encodes to %s, want %s", got, want)
	}
}

// longC is a name whose entry, on a page of its own, fills two pages
// exactly when live (page header 1, name length 2, name, inode number 1,
// flag 1) and spills into a third as a tombstone.
var longC = "c" + strings.Repeat("y", 2*PageSize-5-1)

// longDir holds an entry longer than a page, a tombstone longer than two,
// and short entries around them.
func longDir() *Directory {
	d := &Directory{}
	d.Insert("a", 2)
	d.Insert("b"+strings.Repeat("x", 5000), 3)
	d.Insert(longC, 4)
	d.Remove(longC, vclock.New().Bump(1).Bump(2))
	d.Insert("d", 5)
	return d
}

// TestDirLongEntryRoundTrip: an entry longer than a page is a block of
// its own. It starts a page, after the page header's count of one, and
// the next entry starts the page after its last byte. The directory
// round trips through both decoders, and a snapshot updated around the
// long entries lays out again what follows an entry whose pages change.
func TestDirLongEntryRoundTrip(t *testing.T) {
	t.Parallel()
	d := longDir()
	raw := EncodeDir(d)
	// a on page 0; b's 5,004 bytes on pages 1-2; c's tombstone on 3-5; d on 6.
	for _, blk := range []struct {
		pg   int
		head string
	}{{0, "c4980101"}, {1, "01"}, {3, "01"}, {6, "0101"}} {
		off := blk.pg * PageSize
		if got := fmt.Sprintf("%x", raw[off:off+len(blk.head)/2]); got != blk.head {
			t.Errorf("page %d starts %s, want %s", blk.pg, got, blk.head)
		}
	}
	if len(raw) != 6*PageSize+5 {
		t.Fatalf("the directory is %d bytes, want %d", len(raw), 6*PageSize+5)
	}
	got, err := DecodeDir(raw)
	if err != nil || !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	s, err := DecodeDirSnapshot(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSnapshot(s, d); err != nil {
		t.Fatal(err)
	}
	// An entry after the long one starts a block of its own, on page 3,
	// and what follows moves a page on; the long tombstone resurrected
	// is two pages long, and d moves back to page 6.
	for _, step := range []struct {
		name string
		ino  storage.InodeNum
		size int
	}{{"bz", 6, 7*PageSize + 5}, {longC, 7, 6*PageSize + 5}} {
		s = s.Insert(step.name, step.ino)
		d.Insert(step.name, step.ino)
		if err := checkSnapshot(s, d); err != nil {
			t.Fatal(err)
		}
		if got := s.Size(); got != step.size {
			t.Errorf("after inserting %.4s… the directory is %d bytes, want %d", step.name, got, step.size)
		}
	}
}
