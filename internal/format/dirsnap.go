package format

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// A chunk holds at most chunkMax entries: a run of decoded entries is
// cut evenly into as few chunks as that allows, and a chunk grows by one
// with each new name and splits in two when it would exceed chunkMax.
// Entries are never dropped (a removed name stays as a tombstone), so a
// chunk never shrinks and every chunk holds between 1 and chunkMax
// entries. Every update copies the chunk it changes, at the CSS that
// makes it and at the using site that re-applies it, and the CSS's
// snapshot of a directory it keeps current is built by inserts, so its
// chunks run between half full and full: the one size is small enough
// that those copies cost no more than the decode they replace (ROADMAP,
// item 4 and "Recorded").
const chunkMax = 48

// dirChunk is one run of consecutive entries with its encoding. Neither
// slice is written after the chunk is built: snapshots share chunks.
type dirChunk struct {
	entries []DirEntry // strictly ascending by Name
	enc     []byte     // what appendEntries writes for entries
	live    int        // entries that are not tombstones
}

// newChunk is the chunk of entries, encoded here.
func newChunk(entries []DirEntry) dirChunk {
	c := dirChunk{entries: entries, enc: appendEntries(make([]byte, 0, entriesLen(entries)), entries)}
	for i := range entries {
		if !entries[i].Deleted {
			c.live++
		}
	}
	return c
}

// DirSnapshot is an immutable directory: what the kernel's directory
// cache holds and pathname searching reads, shared between any number
// of readers. It has no exported state and no method that changes it;
// Insert and Remove return a new snapshot that shares every chunk but
// the one holding the name, so an update copies and re-encodes one
// chunk (§2.3.4: "no system call does more than just enter, delete, or
// change an entry within a directory"), not the directory.
//
// The mutable, flat Directory remains the value of the codec,
// reconciliation and fsck; both forms encode to the same bytes.
type DirSnapshot struct {
	chunks []dirChunk // ascending; no chunk is empty
	n      int        // entries, tombstones included
	live   int        // entries that are not tombstones
	encLen int        // total length of the chunk encodings
}

// DecodeDirSnapshot is DecodeDir into a snapshot: it accepts exactly the
// bytes DecodeDir accepts and yields exactly those entries. The snapshot
// keeps nothing of raw, which the caller may reuse at once.
//
// prev is any snapshot, or nil; the result does not depend on it, only
// the work does. A directory update changes an entry or two (§2.3.4), so
// against the snapshot a site already holds of the directory most of raw
// is, chunk by chunk, bytes that snapshot holds decoded. The decoder
// walks raw from one entry boundary to the next. Where the entry's name
// is the first name of one of prev's chunks and that chunk's encoding is
// a prefix of what remains, the chunk is kept as it is — shared, the way
// Insert and Remove share chunks: its encoding is that of well-formed
// entries in ascending order, so only how its first name sorts against
// the name before it is left to check. The entries between two kept
// chunks, a gap, go through the strict decoder into new chunks.
func DecodeDirSnapshot(prev *DirSnapshot, raw []byte) (*DirSnapshot, error) {
	s := &DirSnapshot{}
	if len(raw) == 0 {
		return s, nil
	}
	n, b, err := decodeDirHeader(raw)
	if err != nil {
		return nil, err
	}
	var old []dirChunk // prev's chunks whose first name is not yet passed
	if prev != nil {
		old = prev.chunks
	}
	// Room for a cold decode's chunks, or for prev's and a few more: a gap
	// where prev had one chunk of more than chunkMax entries makes two.
	s.chunks = make([]dirChunk, 0, max((n+chunkMax-1)/chunkMax, len(old)+len(old)/4))
	var d entryDecoder // the strict decoder the gaps share
	gap, gapN := b, 0  // the open gap starts at gap and holds gapN entries so far
	for s.n+gapN < n {
		name, k, ok := skimEntry(b)
		if !ok {
			return nil, ErrCorrupt
		}
		for len(old) > 0 && old[0].entries[0].Name < string(name) {
			old = old[1:]
		}
		if len(old) == 0 || old[0].entries[0].Name != string(name) || !bytes.HasPrefix(b, old[0].enc) {
			b, gapN = b[k:], gapN+1
			continue
		}
		if err := d.decodeGap(s, gap[:len(gap)-len(b)], gapN); err != nil {
			return nil, err
		}
		c := old[0]
		if d.seen > 0 && string(name) <= d.last {
			return nil, fmt.Errorf("%w: directory names not strictly ascending", ErrCorrupt)
		}
		d.seen, d.last = d.seen+len(c.entries), c.entries[len(c.entries)-1].Name
		s.add(c)
		b, old = b[len(c.enc):], old[1:]
		gap, gapN = b, 0
	}
	if err := d.decodeGap(s, gap[:len(gap)-len(b)], gapN); err != nil {
		return nil, err
	}
	// A kept chunk can overshoot the count the header declares.
	if s.n != n || len(b) != 0 {
		return nil, fmt.Errorf("%w: directory holds %d entries and %d more bytes, header says %d", ErrCorrupt, s.n, len(b), n)
	}
	return s, nil
}

// add appends a chunk to a snapshot under construction.
func (s *DirSnapshot) add(c dirChunk) {
	s.chunks = append(s.chunks, c)
	s.n += len(c.entries)
	s.live += c.live
	s.encLen += len(c.enc)
}

// skimEntry finds the name and the length of the entry at the front of
// b, checking bounds and nothing else. It refuses no entry the strict
// decoder (entryDecoder.run) accepts and finds the same boundaries
// there; what it lets through wrongly the strict decode of the gap
// refuses afterwards.
func skimEntry(b []byte) (name []byte, n int, ok bool) {
	nameLen, k := binary.Uvarint(b)
	if k <= 0 || uint64(len(b)-k) < nameLen {
		return nil, 0, false
	}
	n = k + int(nameLen)
	name = b[k:n]
	if k = skipUvarints(b[n:], 1); k < 0 || n+k == len(b) { // the inode number
		return nil, 0, false
	}
	n += k + 1
	switch b[n-1] {
	case 0:
		return name, n, true
	case 1:
		// A tombstone's vector: the number of sites, then a site and a
		// count for each.
		sites, k := binary.Uvarint(b[n:])
		if k <= 0 || sites > uint64(len(b)-n-k)/2 {
			return nil, 0, false
		}
		n += k
		if k = skipUvarints(b[n:], 2*int(sites)); k < 0 {
			return nil, 0, false
		}
		return name, n + k, true
	}
	return nil, 0, false
}

// skipUvarints returns the length of the count uvarints at the front of
// b, or -1 if b does not hold that many.
func skipUvarints(b []byte, count int) int {
	n := 0
	for ; count > 0; count-- {
		_, k := binary.Uvarint(b[n:])
		if k <= 0 {
			return -1
		}
		n += k
	}
	return n
}

// decodeGap decodes enc, which the skim found to hold n entries, and
// appends them to s as chunks of chunkMax entries or, cut evenly,
// fewer. The chunks share one entry array, one copy of enc and one
// string holding the names.
func (d *entryDecoder) decodeGap(s *DirSnapshot, enc []byte, n int) error {
	if n == 0 {
		return nil
	}
	entries := make([]DirEntry, n)
	names := string(enc)
	enc = []byte(names)
	pieces := (n + chunkMax - 1) / chunkMax
	for p := 0; p < pieces; p++ {
		es := entries[:(n-p+pieces-1)/pieces]
		k, live, err := d.run(es, enc, names)
		if err != nil {
			return err
		}
		s.add(dirChunk{entries: es[:len(es):len(es)], enc: enc[:k:k], live: live})
		entries, enc, names = entries[len(es):], enc[k:], names[k:]
	}
	if len(enc) != 0 {
		return ErrCorrupt // the skim and the decoder disagree on a boundary
	}
	return nil
}

// find locates name: the chunk that holds it or would hold it, the
// index in that chunk, and whether it is there. An empty snapshot has
// no chunk to name and finds nothing.
func (s *DirSnapshot) find(name string) (ci, i int, found bool) {
	if len(s.chunks) == 0 {
		return 0, 0, false
	}
	// The last chunk whose first name is not above name.
	lo, hi := 0, len(s.chunks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.chunks[m].entries[0].Name <= name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if ci = lo - 1; ci < 0 {
		ci = 0
	}
	es := s.chunks[ci].entries
	i = searchEntries(es, name)
	return ci, i, i < len(es) && es[i].Name == name
}

// Lookup returns the live entry for name, if any.
func (s *DirSnapshot) Lookup(name string) (DirEntry, bool) {
	e, ok := s.LookupAny(name)
	if !ok || e.Deleted {
		return DirEntry{}, false
	}
	return e, true
}

// LookupAny returns the entry for name including tombstones.
func (s *DirSnapshot) LookupAny(name string) (DirEntry, bool) {
	ci, i, found := s.find(name)
	if !found {
		return DirEntry{}, false
	}
	return s.chunks[ci].entries[i], true
}

// HasLive reports whether the directory has any non-tombstone entry.
func (s *DirSnapshot) HasLive() bool { return s.live > 0 }

// Live returns the non-tombstone entries, sorted by name, in a slice
// the caller owns.
func (s *DirSnapshot) Live() []DirEntry {
	out := make([]DirEntry, 0, s.live)
	for ci := range s.chunks {
		c := &s.chunks[ci]
		if c.live == len(c.entries) {
			out = append(out, c.entries...)
			continue
		}
		for i := range c.entries {
			if !c.entries[i].Deleted {
				out = append(out, c.entries[i])
			}
		}
	}
	return out
}

// Insert returns the snapshot with the entry for name added or
// replaced. Inserting over a tombstone resurrects the name.
func (s *DirSnapshot) Insert(name string, ino storage.InodeNum) *DirSnapshot {
	return s.put(DirEntry{Name: name, Inode: ino})
}

// Remove returns the snapshot with the live entry for name replaced by
// a tombstone recording the file's version vector at delete time.
// Removing a missing or already-deleted name reports false and returns
// s itself.
func (s *DirSnapshot) Remove(name string, fileVV vclock.VV) (*DirSnapshot, bool) {
	ci, i, found := s.find(name)
	if !found || s.chunks[ci].entries[i].Deleted {
		return s, false
	}
	e := s.chunks[ci].entries[i]
	e.Deleted, e.DelVV = true, fileVV
	return s.install(ci, i, true, e), true
}

// put returns the snapshot with e installed verbatim under its name.
func (s *DirSnapshot) put(e DirEntry) *DirSnapshot {
	if len(s.chunks) == 0 {
		c := newChunk([]DirEntry{e})
		return &DirSnapshot{chunks: []dirChunk{c}, n: 1, live: c.live, encLen: len(c.enc)}
	}
	ci, i, found := s.find(e.Name)
	return s.install(ci, i, found, e)
}

// install returns the snapshot with e at index i of chunk ci, in place
// of the entry there or, with replace unset, in front of it. Only that
// chunk is copied and re-encoded; it splits if it outgrows chunkMax.
func (s *DirSnapshot) install(ci, i int, replace bool, e DirEntry) *DirSnapshot {
	old := &s.chunks[ci]
	grow := 1
	if replace {
		grow = 0
	}
	entries := make([]DirEntry, len(old.entries)+grow)
	copy(entries, old.entries[:i])
	entries[i] = e
	copy(entries[i+1:], old.entries[i+1-grow:])

	var repl []dirChunk
	if len(entries) > chunkMax {
		h := len(entries) / 2
		repl = []dirChunk{newChunk(entries[:h:h]), newChunk(entries[h:])}
	} else {
		repl = []dirChunk{newChunk(entries)}
	}
	t := &DirSnapshot{
		chunks: make([]dirChunk, 0, len(s.chunks)-1+len(repl)),
		n:      s.n + grow,
		live:   s.live - old.live,
		encLen: s.encLen - len(old.enc),
	}
	t.chunks = append(t.chunks, s.chunks[:ci]...)
	for _, c := range repl {
		t.chunks = append(t.chunks, c)
		t.live += c.live
		t.encLen += len(c.enc)
	}
	t.chunks = append(t.chunks, s.chunks[ci+1:]...)
	return t
}

// AppendEncoded appends the directory's serialization to b: byte for
// byte what EncodeDir produces for the same entries, assembled from the
// header and the chunks' stored encodings.
func (s *DirSnapshot) AppendEncoded(b []byte) []byte {
	b = slices.Grow(b, dirHeaderLen(s.n)+s.encLen)
	b = appendDirHeader(b, s.n)
	for i := range s.chunks {
		b = append(b, s.chunks[i].enc...)
	}
	return b
}
