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
// chunk shrinks only where a re-layout cuts it at a page boundary
// (relayout), and every chunk holds between 1 and chunkMax entries.
// Every update copies the chunk it changes, at the CSS that
// makes it and at the using site that re-applies it, and the CSS's
// snapshot of a directory it keeps current is built by inserts, so its
// chunks run between half full and full: the one size is small enough
// that those copies cost no more than the decode they replace (ROADMAP,
// item 4 and "Recorded").
const chunkMax = 48

// dirChunk is one run of consecutive entries with its encoding, all in
// one block. Neither slice is written after the chunk is built:
// snapshots share chunks.
type dirChunk struct {
	entries []DirEntry // strictly ascending by Name
	enc     []byte     // what appendEntries writes for entries
	page    int32      // the page the chunk's block starts on
	live    int32      // entries that are not tombstones
}

// newChunk is the chunk of entries on page pg, encoded here.
func newChunk(entries []DirEntry, pg int) dirChunk {
	c := dirChunk{entries: entries, enc: appendEntries(make([]byte, 0, entriesLen(entries)), entries), page: int32(pg)}
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
// change an entry within a directory"), not the directory, and changes
// the bytes of the page that chunk is on, not the pages around it
// (PagesChanged).
//
// A snapshot keeps its page layout: no chunk crosses a block, and
// encoding it reproduces the bytes it was decoded from. The layout is a
// function of the one before and the update, not of the entries alone:
// an update rewrites its block in place while the block still takes the
// pages it took, and otherwise lays the directory out again, greedily,
// from that block's page to the end. The CSS that makes an update and
// the using site that re-applies it to the same snapshot therefore hold
// the same bytes.
//
// The mutable, flat Directory remains the value of the codec,
// reconciliation and fsck; it keeps no layout, and EncodeDir lays its
// entries out greedily from page 0.
type DirSnapshot struct {
	chunks []dirChunk // ascending; no chunk is empty; a block's are consecutive
	n      int        // entries, tombstones included
	live   int        // entries that are not tombstones
	size   int        // the length of the encoding
}

// DecodeDirSnapshot is DecodeDir into a snapshot: it accepts exactly the
// bytes DecodeDir accepts, yields exactly those entries and keeps their
// layout. The snapshot keeps nothing of raw, which the caller may reuse
// at once.
//
// prev is any snapshot, or nil; the result does not depend on it, only
// the work does. A directory update changes an entry or two (§2.3.4), so
// against the snapshot a site already holds of the directory most of raw
// is, chunk by chunk, bytes that snapshot holds decoded. The decoder
// walks each block from one entry boundary to the next. Where the
// entry's name is the first name of one of prev's chunks, that chunk's
// encoding is a prefix of what remains of the block and its entries do
// not run past the block's count, the chunk is kept as it is — shared,
// the way Insert and Remove share chunks: its encoding is that of
// well-formed entries in ascending order, so only how its first name
// sorts against the name before it is left to check. The entries between
// two kept chunks, a gap, go through the strict decoder into new chunks.
func DecodeDirSnapshot(prev *DirSnapshot, raw []byte) (*DirSnapshot, error) {
	s := &DirSnapshot{}
	if len(raw) == 0 {
		return s, nil
	}
	n, blocks, err := countDir(raw)
	if err != nil {
		return nil, err
	}
	// head is the one of prev's chunks, or what a block boundary left of
	// it, whose first name is the next not yet passed; old, the chunks
	// after it.
	var head dirChunk
	var old []dirChunk
	if prev != nil && len(prev.chunks) > 0 {
		head, old = prev.chunks[0], prev.chunks[1:]
	}
	// Room for a cold decode's chunks, or for prev's and a few more: a gap
	// where prev had one chunk of more than chunkMax entries makes two.
	s.chunks = make([]dirChunk, 0, max(n/chunkMax+blocks, len(old)+len(old)/4+blocks))
	var d entryDecoder // the strict decoder the gaps share
	for pg := 0; pg >= 0; {
		blk, err := readBlock(raw, pg)
		if err != nil {
			return nil, err
		}
		b := raw[blk.start:blk.limit]
		gap, gapN, in := b, 0, 0 // the open gap starts at gap and holds gapN entries; in: the block's entries passed
		for in+gapN < blk.n {
			name, k, ok := skimEntry(b)
			if !ok {
				return nil, ErrCorrupt
			}
			for head.entries != nil && head.entries[0].Name < string(name) {
				head, old = nextChunk(old)
			}
			var c dirChunk // what of head the block holds, if raw has it here
			if head.entries != nil && head.entries[0].Name == string(name) {
				c = head.prefix(blk.n - in - gapN)
			}
			if c.entries == nil || !bytes.HasPrefix(b, c.enc) {
				b, gapN = b[k:], gapN+1
				continue
			}
			if err := d.decodeGap(s, gap[:len(gap)-len(b)], gapN, pg); err != nil {
				return nil, err
			}
			if d.seen > 0 && string(name) <= d.last {
				return nil, fmt.Errorf("%w: directory names not strictly ascending", ErrCorrupt)
			}
			d.seen, d.last = d.seen+len(c.entries), c.entries[len(c.entries)-1].Name
			c.page = int32(pg)
			s.add(c)
			in += gapN + len(c.entries)
			if len(c.entries) < len(head.entries) {
				// The rest of head may start the next block.
				head = dirChunk{entries: head.entries[len(c.entries):], enc: head.enc[len(c.enc):], live: head.live - c.live}
			} else {
				head, old = nextChunk(old)
			}
			b = b[len(c.enc):]
			gap, gapN = b, 0
		}
		if err := d.decodeGap(s, gap[:len(gap)-len(b)], gapN, pg); err != nil {
			return nil, err
		}
		if pg, err = blockAfter(raw, blk.limit-len(b)); err != nil {
			return nil, err
		}
	}
	s.size = len(raw)
	return s, nil
}

// nextChunk splits the first chunk off cs, the zero chunk if there is
// none.
func nextChunk(cs []dirChunk) (dirChunk, []dirChunk) {
	if len(cs) == 0 {
		return dirChunk{}, nil
	}
	return cs[0], cs[1:]
}

// prefix is the chunk of c's first m entries, or of all of them if it
// has no more: a block boundary a re-layout moved may cut a chunk a site
// holds, as relayout cuts it.
func (c dirChunk) prefix(m int) dirChunk {
	if m >= len(c.entries) {
		return c
	}
	p := dirChunk{entries: c.entries[:m:m]}
	off := 0
	for i := range p.entries {
		off += entryLen(&p.entries[i])
		if !p.entries[i].Deleted {
			p.live++
		}
	}
	p.enc = c.enc[:off:off]
	return p
}

// add appends a chunk to a snapshot under construction.
func (s *DirSnapshot) add(c dirChunk) {
	s.chunks = append(s.chunks, c)
	s.n += len(c.entries)
	s.live += int(c.live)
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

// decodeGap decodes enc, which the skim found to hold n entries of the
// block on page pg, and appends them to s as chunks of chunkMax entries
// or, cut evenly, fewer. The chunks share one entry array, one copy of
// enc and one string holding the names.
func (d *entryDecoder) decodeGap(s *DirSnapshot, enc []byte, n, pg int) error {
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
		s.add(dirChunk{entries: es[:len(es):len(es)], enc: enc[:k:k], page: int32(pg), live: int32(live)})
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
		if int(c.live) == len(c.entries) {
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
		c := newChunk([]DirEntry{e}, 0)
		return &DirSnapshot{chunks: []dirChunk{c}, n: 1, live: int(c.live), size: pageHeaderLen(0, 1) + len(c.enc)}
	}
	ci, i, found := s.find(e.Name)
	return s.install(ci, i, found, e)
}

// install returns the snapshot with e at index i of chunk ci, in place
// of the entry there or, with replace unset, in front of it. Only that
// chunk is copied and re-encoded; it splits if it outgrows chunkMax. Its
// block is rewritten in place if it still takes the pages it took (and,
// holding more than one entry, fits in one); otherwise the directory is
// laid out again from the block's page (relayout).
func (s *DirSnapshot) install(ci, i int, replace bool, e DirEntry) *DirSnapshot {
	old := &s.chunks[ci]
	pg := int(old.page)
	grow := 1
	if replace {
		grow = 0
	}
	entries := make([]DirEntry, len(old.entries)+grow)
	copy(entries, old.entries[:i])
	entries[i] = e
	copy(entries[i+1:], old.entries[i+1-grow:])

	var replBuf [2]dirChunk
	repl := replBuf[:1]
	if len(entries) > chunkMax {
		h := len(entries) / 2
		replBuf[0], replBuf[1] = newChunk(entries[:h:h], pg), newChunk(entries[h:], pg)
		repl = replBuf[:2]
	} else {
		replBuf[0] = newChunk(entries, pg)
	}
	t := &DirSnapshot{n: s.n + grow, live: s.live - int(old.live)}
	n, body := 0, 0 // the block's, with repl in place of chunk ci
	for _, c := range repl {
		t.live += int(c.live)
		n, body = n+len(c.entries), body+len(c.enc)
	}
	lo, hi := s.block(ci)
	for j := lo; j < hi; j++ {
		if j != ci {
			n, body = n+len(s.chunks[j].entries), body+len(s.chunks[j].enc)
		}
	}
	newSize := pageHeaderLen(pg, n) + body
	if (n == 1 || newSize <= PageSize) && pagesOf(newSize) == pagesOf(s.blockSize(lo, hi)) {
		t.chunks = make([]dirChunk, 0, len(s.chunks)-1+len(repl))
		t.chunks = append(t.chunks, s.chunks[:ci]...)
		t.chunks = append(t.chunks, repl...)
		t.chunks = append(t.chunks, s.chunks[ci+1:]...)
		t.size = s.size
		if hi == len(s.chunks) {
			t.size = pg*PageSize + newSize
		}
		return t
	}
	// A straddled block boundary cuts one chunk in two: room for one more
	// per page from pg on.
	t.chunks = make([]dirChunk, 0, len(s.chunks)+len(repl)+pagesOf(s.size)-pg+1)
	t.chunks = append(t.chunks, s.chunks[:lo]...)
	t.chunks, t.size = relayout(t.chunks, pg, s.chunks[lo:ci], repl, s.chunks[ci+1:])
	return t
}

// relayout appends to dst the chunks of parts, in order, laid out
// greedily from page pg (packer), and returns them with the length of
// the encoding. A chunk moves to the page its block starts on; one that
// a block boundary falls inside is cut in two there, its halves slices
// of its arrays (appendPiece).
func relayout(dst []dirChunk, pg int, parts ...[]dirChunk) ([]dirChunk, int) {
	p := packer{pg: pg}
	for _, part := range parts {
		for _, c := range part {
			from, off, pos, live := 0, 0, 0, 0 // the piece not yet appended: entries from, bytes off on
			for i := range c.entries {
				l := entryLen(&c.entries[i])
				if !p.fits(l) {
					if i > from {
						dst = appendPiece(dst, dirChunk{entries: c.entries[from:i:i], enc: c.enc[off:pos:pos], page: int32(p.pg), live: int32(live)})
					}
					p.next()
					from, off, live = i, pos, 0
				}
				p.add(l)
				pos += l
				if !c.entries[i].Deleted {
					live++
				}
			}
			dst = appendPiece(dst, dirChunk{entries: c.entries[from:], enc: c.enc[off:], page: int32(p.pg), live: int32(live)})
		}
	}
	return dst, p.pg*PageSize + p.size()
}

// appendPiece appends c to dst, the chunks relayout has laid out so far.
// Where the chunk before it is on the same page, the two fit in one and
// either is a sliver of fewer than chunkMax/4 entries, as cuts leave
// them, the two are copied into one instead: slivers would otherwise
// pile up, one per moved boundary, and every update copies the chunk
// table.
func appendPiece(dst []dirChunk, c dirChunk) []dirChunk {
	k := len(dst) - 1
	if k < 0 || dst[k].page != c.page || len(dst[k].entries)+len(c.entries) > chunkMax || min(len(dst[k].entries), len(c.entries)) >= chunkMax/4 {
		return append(dst, c)
	}
	a := dst[k]
	dst[k] = dirChunk{
		entries: append(append(make([]DirEntry, 0, len(a.entries)+len(c.entries)), a.entries...), c.entries...),
		enc:     append(append(make([]byte, 0, len(a.enc)+len(c.enc)), a.enc...), c.enc...),
		page:    c.page,
		live:    a.live + c.live,
	}
	return dst
}

// block returns the range of chunks, lo to hi, of the block that holds
// chunk ci.
func (s *DirSnapshot) block(ci int) (lo, hi int) {
	pg := s.chunks[ci].page
	for lo = ci; lo > 0 && s.chunks[lo-1].page == pg; lo-- {
	}
	for hi = ci + 1; hi < len(s.chunks) && s.chunks[hi].page == pg; hi++ {
	}
	return lo, hi
}

// blockSize is the length of the block made of chunks lo to hi, header
// included.
func (s *DirSnapshot) blockSize(lo, hi int) int {
	n, body := 0, 0
	for _, c := range s.chunks[lo:hi] {
		n, body = n+len(c.entries), body+len(c.enc)
	}
	return pageHeaderLen(int(s.chunks[lo].page), n) + body
}

// appendBlock appends the block made of chunks lo to hi: its header and
// its chunks' encodings.
func (s *DirSnapshot) appendBlock(b []byte, lo, hi int) []byte {
	n := 0
	for _, c := range s.chunks[lo:hi] {
		n += len(c.entries)
	}
	b = appendPageHeader(b, int(s.chunks[lo].page), n)
	for _, c := range s.chunks[lo:hi] {
		b = append(b, c.enc...)
	}
	return b
}

// Size is the length of the directory's serialization.
func (s *DirSnapshot) Size() int {
	if len(s.chunks) == 0 {
		return pageHeaderLen(0, 0)
	}
	return s.size
}

// AppendEncoded appends the directory's serialization to b: its blocks,
// each on the page it starts on, assembled from the chunks' stored
// encodings.
func (s *DirSnapshot) AppendEncoded(b []byte) []byte {
	if len(s.chunks) == 0 {
		return appendPageHeader(b, 0, 0)
	}
	base := len(b)
	b = slices.Grow(b, s.size)
	for lo := 0; lo < len(s.chunks); {
		_, hi := s.block(lo)
		b = s.appendBlock(padTo(b, base+int(s.chunks[lo].page)*PageSize), lo, hi)
		lo = hi
	}
	return b
}

// AppendPage appends page pn of the serialization to b: PageSize bytes,
// zero after the block's last byte on it. pn must be a page of the
// serialization.
func (s *DirSnapshot) AppendPage(b []byte, pn int) []byte {
	start := len(b)
	b = slices.Grow(b, PageSize)
	if len(s.chunks) == 0 {
		b = appendPageHeader(b, 0, 0)
	} else {
		lo := len(s.chunks) - 1
		for lo > 0 && int(s.chunks[lo].page) > pn {
			lo--
		}
		lo, hi := s.block(lo)
		b = s.appendBlock(b, lo, hi)
		if k := (pn - int(s.chunks[lo].page)) * PageSize; k > 0 {
			// A later page of a block longer than one.
			b = b[:start+copy(b[start:], b[start+k:])]
		}
	}
	return padTo(b[:min(len(b), start+PageSize)], start+PageSize)
}

// PagesChanged returns, ascending, the pages of s's serialization that
// do not hold what the same pages of prev's do: the pages of each block
// of s that prev does not hold as it is, on the same page. prev is the
// snapshot s was derived from by Insert and Remove, which share the
// chunks they leave alone, so a block whose chunks are prev's is
// unchanged byte for byte. Pages past the end of s are not listed.
func (s *DirSnapshot) PagesChanged(prev *DirSnapshot) []int {
	var pages []int
	j := 0 // prev's first chunk on a page not before the block's
	for lo := 0; lo < len(s.chunks); {
		_, hi := s.block(lo)
		pg := int(s.chunks[lo].page)
		for j < len(prev.chunks) && int(prev.chunks[j].page) < pg {
			j++
		}
		same := j < len(prev.chunks) && int(prev.chunks[j].page) == pg
		if same {
			_, phi := prev.block(j)
			same = sameChunks(s.chunks[lo:hi], prev.chunks[j:phi])
		}
		if !same {
			for k := pagesOf(s.blockSize(lo, hi)); k > 0; k-- {
				pages = append(pages, pg)
				pg++
			}
		}
		lo = hi
	}
	return pages
}

// sameChunks reports whether a and b are the same chunks: the same
// entry arrays, not equal ones.
func sameChunks(a, b []dirChunk) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].entries) != len(b[i].entries) || &a[i].entries[0] != &b[i].entries[0] {
			return false
		}
	}
	return true
}
