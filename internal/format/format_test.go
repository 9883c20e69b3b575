package format

import (
	"math/rand"
	"reflect"
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
