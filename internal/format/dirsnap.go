package format

import (
	"slices"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// A chunk holds chunkTarget entries when a snapshot is built from
// decoded content, grows by one with each new name, and splits in two
// when it would exceed chunkMax. Entries are never dropped (a removed
// name stays as a tombstone), so a chunk never shrinks and every chunk
// holds between 1 and chunkMax entries.
const (
	chunkTarget = 64
	chunkMax    = 2 * chunkTarget
)

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

// DecodeDirSnapshot is DecodeDir into a snapshot. The snapshot keeps
// the decoded entries and raw itself as its chunks, uncopied: the
// caller must not write to raw afterwards.
func DecodeDirSnapshot(raw []byte) (*DirSnapshot, error) {
	s := &DirSnapshot{}
	entries, err := decodeEntries(raw, &s.chunks)
	if err != nil {
		return nil, err
	}
	s.n = len(entries)
	for i := range s.chunks {
		s.live += s.chunks[i].live
		s.encLen += len(s.chunks[i].enc)
	}
	return s, nil
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
