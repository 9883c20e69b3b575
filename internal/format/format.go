// Package format defines the on-disk serialization of the two system
// data types LOCUS understands well enough to merge automatically:
// naming-catalog directories (§4.4) and mailboxes (§4.5).
//
// Directories are sets of records mapping one pathname element to an
// inode number (§4.4: "A directory can be viewed as a set of records,
// each one containing the character string comprising one element in
// the path name of a file"). Because reconciliation must propagate
// deletes performed in another partition, removed entries are retained
// as tombstones carrying the version vector of the file at the time of
// the delete; rule (d) of the merge algorithm compares that vector with
// the file's current vector to decide whether the file was "modified
// since the delete".
//
// The encoding is a deterministic, self-contained binary format
// (length-prefixed records, entries sorted by name) so that directory
// pages flow through exactly the same page read/write protocols as
// ordinary file data.
package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// ErrCorrupt reports undecodable directory or mailbox content.
var ErrCorrupt = errors.New("format: corrupt serialized data")

const dirMagic = 0x4C44  // "LD": LOCUS directory
const mailMagic = 0x4C4D // "LM": LOCUS mailbox

// DirEntry is one directory record.
type DirEntry struct {
	// Name is the pathname component. Names are unique within a
	// directory (including tombstones).
	Name string
	// Inode is the file descriptor number within the directory's
	// filegroup.
	Inode storage.InodeNum
	// Deleted marks a tombstone: the name was removed, and the fact of
	// removal must survive for partition merge.
	Deleted bool
	// DelVV is, for a tombstone, the version vector of the file at the
	// time of the delete; the merge rules use it to detect "data has
	// been modified since the delete".
	DelVV vclock.VV
}

// Directory is decoded directory content.
type Directory struct {
	Entries []DirEntry // sorted by Name
}

// searchEntries returns the index of the first entry whose name is not
// less than name: where name is, or where it would be inserted.
func searchEntries(es []DirEntry, name string) int {
	lo, hi := 0, len(es)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if es[m].Name < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Lookup returns the live entry for name, if any.
func (d *Directory) Lookup(name string) (DirEntry, bool) {
	e, ok := d.LookupAny(name)
	if !ok || e.Deleted {
		return DirEntry{}, false
	}
	return e, true
}

// LookupAny returns the entry for name including tombstones.
func (d *Directory) LookupAny(name string) (DirEntry, bool) {
	i := searchEntries(d.Entries, name)
	if i < len(d.Entries) && d.Entries[i].Name == name {
		return d.Entries[i], true
	}
	return DirEntry{}, false
}

// Live returns the non-tombstone entries, sorted by name.
func (d *Directory) Live() []DirEntry {
	out := make([]DirEntry, 0, len(d.Entries))
	for _, e := range d.Entries {
		if !e.Deleted {
			out = append(out, e)
		}
	}
	return out
}

// Insert adds or replaces the entry for name. Inserting over a
// tombstone resurrects the name. Directory operations are atomic at
// the entry level (§2.3.4: "no system call does more than just enter,
// delete, or change an entry within a directory").
func (d *Directory) Insert(name string, ino storage.InodeNum) {
	d.PutRaw(DirEntry{Name: name, Inode: ino})
}

// Remove replaces the live entry for name with a tombstone recording
// the file's version vector at delete time. Removing a missing or
// already-deleted name reports false.
func (d *Directory) Remove(name string, fileVV vclock.VV) bool {
	i := searchEntries(d.Entries, name)
	if i >= len(d.Entries) || d.Entries[i].Name != name || d.Entries[i].Deleted {
		return false
	}
	d.Entries[i].Deleted = true
	d.Entries[i].DelVV = fileVV
	return true
}

// PutRaw installs an entry verbatim (used by reconciliation to
// propagate tombstones between copies).
func (d *Directory) PutRaw(e DirEntry) {
	i := searchEntries(d.Entries, e.Name)
	if i < len(d.Entries) && d.Entries[i].Name == e.Name {
		d.Entries[i] = e
		return
	}
	d.Entries = append(d.Entries, DirEntry{})
	copy(d.Entries[i+1:], d.Entries[i:])
	d.Entries[i] = e
}

// EncodeDir serializes a directory: the magic and the entry count as
// uvarints, then per entry a length-prefixed name, the inode number, a
// delete flag byte and, for a tombstone, its vector in vclock's wire
// form. The size is computed first so the result is one allocation.
func EncodeDir(d *Directory) []byte {
	b := make([]byte, 0, dirHeaderLen(len(d.Entries))+entriesLen(d.Entries))
	b = appendDirHeader(b, len(d.Entries))
	return appendEntries(b, d.Entries)
}

func dirHeaderLen(n int) int { return uvarintLen(dirMagic) + uvarintLen(uint64(n)) }

func appendDirHeader(b []byte, n int) []byte {
	b = binary.AppendUvarint(b, dirMagic)
	return binary.AppendUvarint(b, uint64(n))
}

// entriesLen is the length of what appendEntries writes for es.
func entriesLen(es []DirEntry) int {
	size := 0
	for i := range es {
		e := &es[i]
		size += uvarintLen(uint64(len(e.Name))) + len(e.Name) + uvarintLen(uint64(e.Inode)) + 1
		if e.Deleted {
			size += e.DelVV.EncodedLen()
		}
	}
	return size
}

// appendEntries is the one entry encoder: the flat directory and every
// chunk of a snapshot write their records through it.
func appendEntries(b []byte, es []DirEntry) []byte {
	for i := range es {
		e := &es[i]
		b = binary.AppendUvarint(b, uint64(len(e.Name)))
		b = append(b, e.Name...)
		b = binary.AppendUvarint(b, uint64(e.Inode))
		if e.Deleted {
			b = append(b, 1)
			b = e.DelVV.AppendBinary(b)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// uvarintLen is the length of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// padded reports whether the k-byte uvarint at the front of b is longer
// than AppendUvarint would have written it: its last group is zero.
// The decoder refuses these, so that what decodes has exactly one
// serialization, the bytes it came from.
func padded(b []byte, k int) bool { return k > 1 && b[k-1] == 0 }

// minDirEntryLen is the shortest encoded entry: an empty name's length
// byte, a one-byte inode number and the delete flag.
const minDirEntryLen = 3

// DecodeDir parses serialized directory content. Empty input decodes
// as an empty directory (a freshly created directory has no pages).
//
// This is a trust boundary: the bytes may come from a torn
// unsynchronized read (§2.3.4) or a damaged pack. Whatever decodes
// satisfies the invariants the Directory methods search by — names
// strictly ascending, hence unique — and anything EncodeDir could not
// have produced is ErrCorrupt, before any allocation sized from a
// count the input merely declares.
func DecodeDir(raw []byte) (*Directory, error) {
	if len(raw) == 0 {
		return &Directory{}, nil
	}
	n, b, err := decodeDirHeader(raw)
	if err != nil {
		return nil, err
	}
	// One entry array, every name a substring of one conversion of raw.
	var entries []DirEntry
	if n > 0 {
		entries = make([]DirEntry, n)
	}
	var d entryDecoder
	k, _, err := d.run(entries, b, string(raw)[len(raw)-len(b):])
	if err != nil {
		return nil, err
	}
	if k != len(b) {
		return nil, fmt.Errorf("%w: %d bytes after the last directory entry", ErrCorrupt, len(b)-k)
	}
	return &Directory{Entries: entries}, nil
}

// decodeDirHeader checks the magic and the entry count of a non-empty
// serialization and returns the count with the bytes that follow. The
// count is refused unless the bytes present could hold that many
// entries, so a caller may size from it.
func decodeDirHeader(raw []byte) (n int, rest []byte, err error) {
	magic, k := binary.Uvarint(raw)
	if k <= 0 || magic != dirMagic || padded(raw, k) {
		return 0, nil, fmt.Errorf("%w: bad directory magic", ErrCorrupt)
	}
	b := raw[k:]
	count, k := binary.Uvarint(b)
	if k <= 0 || count > uint64(len(b)-k)/minDirEntryLen || padded(b, k) {
		return 0, nil, fmt.Errorf("%w: directory entry count", ErrCorrupt)
	}
	return int(count), b[k:], nil
}

// entryDecoder is the one strict decoder, behind DecodeDir and
// DecodeDirSnapshot. It decodes a directory's entries a run at a time
// and holds what the runs share.
type entryDecoder struct {
	vvs  vclock.Decoder // the tombstone vectors' backing arrays
	seen int            // entries of the directory passed so far
	last string         // the name of the last of them
}

// run decodes the len(entries) entries at the front of b, whose names
// must go on ascending from the last one seen, and returns how many
// bytes they take and how many of them are live. names is string(b), or
// a longer string that starts with it: each name is a substring of it,
// not a copy.
func (d *entryDecoder) run(entries []DirEntry, b []byte, names string) (n, live int, err error) {
	rest, seen, last := b, d.seen, d.last
	for i := range entries {
		nameLen, k := binary.Uvarint(rest)
		if k <= 0 || uint64(len(rest)-k) < nameLen || padded(rest, k) {
			return 0, 0, ErrCorrupt
		}
		off := len(b) - len(rest) + k // rest is always a suffix of b
		name := names[off : off+int(nameLen)]
		rest = rest[k+int(nameLen):]
		if seen > 0 && name <= last {
			return 0, 0, fmt.Errorf("%w: directory names not strictly ascending", ErrCorrupt)
		}
		seen, last = seen+1, name
		ino, k := binary.Uvarint(rest)
		if k <= 0 || len(rest) == k || rest[k] > 1 || padded(rest, k) {
			return 0, 0, ErrCorrupt
		}
		e := DirEntry{Name: name, Inode: storage.InodeNum(ino), Deleted: rest[k] == 1}
		rest = rest[k+1:]
		if e.Deleted {
			had := len(rest)
			if e.DelVV, rest, err = d.vvs.Decode(rest); err != nil || had-len(rest) != e.DelVV.EncodedLen() {
				return 0, 0, fmt.Errorf("%w: tombstone vector", ErrCorrupt)
			}
		} else {
			live++
		}
		entries[i] = e
	}
	d.seen, d.last = seen, last
	return len(b) - len(rest), live, nil
}

// Message is one mail message in the default "multiple messages in a
// single file" mailbox format.
type Message struct {
	// ID is a globally unique message id (origin site + sequence),
	// which is what makes mailbox merge free of name conflicts (§4.5:
	// "it is easy to arrange for no name conflicts").
	ID string
	// From names the sender ("locus-recovery" for conflict mail).
	From string
	// Body is the message text.
	Body string
	// Deleted marks a tombstone so deletes propagate at merge.
	Deleted bool
}

// Mailbox is decoded mailbox content.
type Mailbox struct {
	Messages []Message // sorted by ID
}

// Live returns non-deleted messages, sorted by ID.
func (m *Mailbox) Live() []Message {
	out := make([]Message, 0, len(m.Messages))
	for _, msg := range m.Messages {
		if !msg.Deleted {
			out = append(out, msg)
		}
	}
	return out
}

// Deliver inserts a message (idempotent by ID: redelivery of the same
// ID is a no-op, and delivery over a tombstone stays deleted).
func (m *Mailbox) Deliver(msg Message) {
	i := sort.Search(len(m.Messages), func(i int) bool { return m.Messages[i].ID >= msg.ID })
	if i < len(m.Messages) && m.Messages[i].ID == msg.ID {
		return
	}
	m.Messages = append(m.Messages, Message{})
	copy(m.Messages[i+1:], m.Messages[i:])
	m.Messages[i] = msg
}

// Delete tombstones a message by ID; reports whether it was live.
func (m *Mailbox) Delete(id string) bool {
	i := sort.Search(len(m.Messages), func(i int) bool { return m.Messages[i].ID >= id })
	if i >= len(m.Messages) || m.Messages[i].ID != id || m.Messages[i].Deleted {
		return false
	}
	m.Messages[i].Deleted = true
	m.Messages[i].Body = "" // reclaim space; the tombstone needs only the ID
	return true
}

// PutRaw installs a message record verbatim (merge use).
func (m *Mailbox) PutRaw(msg Message) {
	i := sort.Search(len(m.Messages), func(i int) bool { return m.Messages[i].ID >= msg.ID })
	if i < len(m.Messages) && m.Messages[i].ID == msg.ID {
		m.Messages[i] = msg
		return
	}
	m.Messages = append(m.Messages, Message{})
	copy(m.Messages[i+1:], m.Messages[i:])
	m.Messages[i] = msg
}

// EncodeMailbox serializes a mailbox.
func EncodeMailbox(m *Mailbox) []byte {
	b := binary.AppendUvarint(nil, mailMagic)
	b = binary.AppendUvarint(b, uint64(len(m.Messages)))
	appendStr := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	for _, msg := range m.Messages {
		appendStr(msg.ID)
		appendStr(msg.From)
		appendStr(msg.Body)
		if msg.Deleted {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// DecodeMailbox parses serialized mailbox content; empty input is an
// empty mailbox.
func DecodeMailbox(b []byte) (*Mailbox, error) {
	m := &Mailbox{}
	if len(b) == 0 {
		return m, nil
	}
	magic, k := binary.Uvarint(b)
	if k <= 0 || magic != mailMagic {
		return nil, fmt.Errorf("%w: bad mailbox magic", ErrCorrupt)
	}
	b = b[k:]
	n, k := binary.Uvarint(b)
	if k <= 0 {
		return nil, ErrCorrupt
	}
	b = b[k:]
	readStr := func() (string, error) {
		l, k := binary.Uvarint(b)
		if k <= 0 || uint64(len(b[k:])) < l {
			return "", ErrCorrupt
		}
		s := string(b[k : k+int(l)])
		b = b[k+int(l):]
		return s, nil
	}
	for i := uint64(0); i < n; i++ {
		var msg Message
		var err error
		if msg.ID, err = readStr(); err != nil {
			return nil, err
		}
		if msg.From, err = readStr(); err != nil {
			return nil, err
		}
		if msg.Body, err = readStr(); err != nil {
			return nil, err
		}
		if len(b) < 1 {
			return nil, ErrCorrupt
		}
		msg.Deleted = b[0] == 1
		b = b[1:]
		m.Messages = append(m.Messages, msg)
	}
	sort.Slice(m.Messages, func(i, j int) bool { return m.Messages[i].ID < m.Messages[j].ID })
	return m, nil
}

// ValidName reports whether a pathname component is legal: nonempty, no
// slash, not "." or "..".
func ValidName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.Contains(name, "/")
}
