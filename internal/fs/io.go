package fs

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/format"
	"repro/internal/lint/invariant"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// ReadAt reads up to len(p) bytes at offset off, returning the count
// read. Reads past end of file return a short count (0 at or past EOF).
// Data is fetched page-at-a-time: locally through the container, or
// with the two-message network read protocol of §2.3.3.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if f.stale {
		return 0, fmt.Errorf("%w: %v", ErrStale, f.id)
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	// For the writer, EOF is the in-core size this handle maintains;
	// for readers it is discovered from the SS per page.
	size := f.size
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		if cur >= size && f.mode == ModeModify {
			break
		}
		pn := storage.PageNo(cur / storage.PageSize)
		data, ssSize, owned, err := f.fetchPage(pn)
		if err != nil && f.mode == ModeRead && errors.Is(err, storage.ErrNoInode) {
			// The storage site's copy is gone, retired after a move, say:
			// read on from another copy of the same version (§5.1).
			if !f.k.reopenElsewhere(f) {
				return total, fmt.Errorf("%w: %v", ErrStale, f.id)
			}
			data, ssSize, owned, err = f.fetchPage(pn)
		}
		if err != nil {
			return total, err
		}
		size = ssSize
		if f.mode != ModeModify {
			f.size = ssSize
		}
		if cur >= size {
			if owned {
				storage.PutPageBuf(data)
			}
			break
		}
		pageOff := int(cur % storage.PageSize)
		avail := int64(len(data)) - int64(pageOff)
		if rem := size - (cur - int64(pageOff)); rem < int64(len(data)) {
			avail = rem - int64(pageOff)
		}
		if avail <= 0 {
			if owned {
				storage.PutPageBuf(data)
			}
			break
		}
		n := copy(p[total:], data[pageOff:int64(pageOff)+avail])
		if owned {
			// The page was copied into the caller's buffer; recycle the
			// exclusively owned fetch buffer.
			storage.PutPageBuf(data)
		}
		total += n
		if n == 0 {
			break
		}
	}
	return total, nil
}

// fetchPage returns one logical page and the file size at the SS.
// Remote committed reads consult the using-site page cache first
// (§2.2.1 buffer management); a miss runs the two-message read protocol
// of §2.3.3 with adaptive streaming readahead, depositing the piggy-
// backed pages into the cache for the sequential reads that follow.
//
// The returned owned flag reports buffer ownership: a locally served
// page is an exclusive pooled copy the caller must release with
// storage.PutPageBuf once it has copied the bytes out; a remote or
// cached page aliases an immutable shared buffer (see readResp) and must
// never be released.
//
// An internal handle holds no lock, so a commit can land between its
// open and a page read, or between two page reads, and a same-size
// update read half old, half new would decode as a directory nobody
// wrote. Every page comes with the vector of the version it was read
// from: one that is not the open's is refused as format.ErrCorrupt
// (readDirByID retries on a fresh open) and not cached.
func (f *File) fetchPage(pn storage.PageNo) (data []byte, size int64, owned bool, err error) {
	k := f.k
	incore := f.mode == ModeModify
	if f.ss == k.site {
		data, size, vv, err := k.localPage(f.id, pn, incore, f.us, false)
		if err == nil && f.internal && !vv.Equal(f.ino.VV) {
			storage.PutPageBuf(data)
			return nil, 0, false, f.errChangedUnderRead()
		}
		return data, size, true, err
	}
	if incore {
		// The writer reads its own in-core (shadowed) state at the SS;
		// uncommitted data never enters the committed-page cache.
		r, err := netsim.Call(k.node, f.ss, mRead, &readReq{ID: f.id, Page: pn, Incore: true})
		if err != nil {
			return nil, 0, false, err
		}
		return r.Data, r.Size, false, nil
	}

	// Track sequentiality: the window doubles while the reader keeps
	// advancing page by page and resets on a seek. Only a read handle
	// streams: its open holds commits off, while an internal handle
	// holds no lock and a piggybacked page's version goes unchecked.
	sequential := pn == f.raNext
	f.raNext = pn + 1
	cached := !k.cfg.Features.NoPageCache
	ra := f.mode == ModeRead && cached
	if ra {
		if !sequential {
			f.raWindow = 0
		} else if f.raWindow == 0 {
			f.raWindow = 1
		} else if f.raWindow < RAMax {
			f.raWindow *= 2
			if f.raWindow > RAMax {
				f.raWindow = RAMax
			}
		}
	}

	if cached {
		if data, size, ok := k.cache.get(f.id, pn, f.ino.VV, f.internal); ok {
			return data, size, false, nil
		}
	}

	req := &readReq{ID: f.id, Page: pn}
	if ra {
		req.Readahead = f.raWindow
	}
	r, err := netsim.Call(k.node, f.ss, mRead, req)
	if err != nil {
		return nil, 0, false, err
	}
	if f.internal && !r.VV.Equal(f.ino.VV) {
		return nil, 0, false, f.errChangedUnderRead()
	}
	if cached {
		k.cache.put(f.id, pn, r.Data, r.Size, r.VV, false)
		for i, extra := range r.Extra {
			k.cache.put(f.id, pn+1+storage.PageNo(i), extra, r.Size, r.VV, true)
		}
	}
	return r.Data, r.Size, false, nil
}

func (f *File) errChangedUnderRead() error {
	return fmt.Errorf("%w: %v changed during an unsynchronized read", format.ErrCorrupt, f.id)
}

// zeroPage is the page served for holes on the zero-copy path. It is
// immutable by the same contract as every shared page buffer: all
// receivers copy out of served pages, none write into them.
var zeroPage = make([]byte, storage.PageSize)

// localPage serves a page at the storage site: from the writer's
// in-core (shadowed) inode when incore is set and the requester is the
// writer, otherwise from the committed disk inode. The returned version
// vector is the committed version served, or nil for in-core state
// (which must never be cached as committed).
//
// shared selects buffer ownership. With shared=false the returned page
// is an exclusive pooled copy the caller owns (and may release with
// storage.PutPageBuf). With shared=true — the network serve path — the
// container's internal buffer is returned without copying; it is
// immutable (shadow pages are never rewritten) and is protected from
// pool recycling by the container's shared-page tracking, so it may be
// shipped in a readResp and aliased by remote caches.
func (k *Kernel) localPage(id storage.FileID, pn storage.PageNo, incore bool, us SiteID, shared bool) ([]byte, int64, vclock.VV, error) {
	c := k.container(id.FG)
	if c == nil {
		return nil, 0, nil, fmt.Errorf("%w: %v at site %d", ErrNoStorageSite, id, k.site)
	}
	if incore {
		k.mu.Lock()
		if sv := k.ssState[id]; sv != nil && sv.writerUS == us {
			pp, size := storage.PhysPageNil, sv.incore.Size
			if int(pn) < len(sv.incore.Pages) {
				pp = sv.incore.Pages[pn]
			}
			k.mu.Unlock()
			// Only the writer frees its shadow pages, and it is the one
			// reading: the physical address stays good unlocked.
			var data []byte
			var err error
			switch {
			case pp == storage.PhysPageNil:
				data = holePage(shared)
			case shared:
				data, err = c.ReadPageShared(pp)
			default:
				data, err = c.ReadPage(pp)
			}
			return data, size, nil, err
		}
		k.mu.Unlock()
	}
	// Committed state: the container finds the page and reads it under
	// one lock hold, so no commit can free it in between.
	data, size, vv, err := c.ReadFilePage(id.Inode, pn, shared)
	if err == nil && data == nil {
		data = holePage(shared)
	}
	return data, size, vv, err
}

// holePage is what a hole reads as: the immutable zeroPage on the
// zero-copy path, a fresh pooled page the caller owns otherwise.
func holePage(shared bool) []byte {
	if shared {
		return zeroPage
	}
	return storage.GetPageBuf()
}

func (k *Kernel) handleRead(from SiteID, req *readReq) (*readResp, error) {
	data, size, vv, err := k.localPage(req.ID, req.Page, req.Incore, from, true)
	if err != nil {
		return nil, err
	}
	resp := &readResp{Data: data, Size: size, VV: vv}
	// Streaming readahead: piggyback the following pages while the
	// reader is sequential. Bounds are checked before fetching so no
	// disk time is charged for pages past end of file.
	n := req.Readahead
	if n > RAMax {
		n = RAMax
	}
	for i := 1; i <= n; i++ {
		next := req.Page + storage.PageNo(i)
		if int64(next)*storage.PageSize >= size {
			break
		}
		extra, _, _, err := k.localPage(req.ID, next, req.Incore, from, true)
		if err != nil {
			break // serve what we have; the US fetches the rest on demand
		}
		resp.Extra = append(resp.Extra, extra)
	}
	if len(resp.Extra) > 0 {
		k.meter().AddReadaheadSent(len(resp.Extra))
	}
	return resp, nil
}

// WriteAt writes p at offset off through a modify-mode handle. Whole
// pages are shipped with the one-message write protocol (§2.3.5);
// partial pages are first read with the read protocol, merged, and
// shipped whole.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, ErrClosed
	}
	if f.stale {
		return 0, fmt.Errorf("%w: %v", ErrStale, f.id)
	}
	if f.mode != ModeModify {
		return 0, ErrReadOnly
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off < 0 {
		return 0, fmt.Errorf("fs: negative offset %d", off)
	}
	total := 0
	for total < len(p) {
		cur := off + int64(total)
		pn := storage.PageNo(cur / storage.PageSize)
		pageOff := int(cur % storage.PageSize)
		n := storage.PageSize - pageOff
		if n > len(p)-total {
			n = len(p) - total
		}
		var page []byte
		var merged bool
		if pageOff == 0 && n == storage.PageSize {
			// Entire page changes: no read needed (§2.3.5).
			page = p[total : total+n]
		} else {
			// Partial page: read-merge-write.
			old, _, owned, err := f.fetchPage(pn)
			if err != nil {
				return total, err
			}
			page = mergePartialPage(old, pageOff, p[total:total+n])
			merged = true
			if owned {
				storage.PutPageBuf(old)
			}
		}
		newSize := f.size
		if end := cur + int64(n); end > newSize {
			newSize = end
		}
		err := f.sendWrite(pn, page, newSize)
		if merged {
			// sendWrite never retains the page (the SS, local or remote,
			// has copied it into a shadow page by the time it returns), so
			// the merge buffer recycles.
			storage.PutPageBuf(page)
		}
		if err != nil {
			return total, err
		}
		f.size, f.ino.Size = newSize, newSize
		f.dirty[pn] = true
		total += n
	}
	return total, nil
}

// mergePartialPage returns a fresh pooled page holding old with src
// written at off. The fetched page may alias a cached committed page
// (or the SS's committed page buffer on a local open); merging must
// never mutate it in place. The caller owns the returned buffer.
func mergePartialPage(old []byte, off int, src []byte) []byte {
	page := storage.GetPageBuf()[:len(old)]
	copy(page, old)
	copy(page[off:], src)
	return page
}

// Append writes p at the current end of file.
func (f *File) Append(p []byte) (int, error) { return f.WriteAt(p, f.size) }

// writePage ships page, whole, as logical page pn of a file of size
// bytes: WriteAt's one step for a page that changes entirely (§2.3.5),
// for a caller that knows the size the write leaves.
func (f *File) writePage(pn storage.PageNo, page []byte, size int64) error {
	if err := f.sendWrite(pn, page, size); err != nil {
		return err
	}
	f.size, f.ino.Size = size, size
	f.dirty[pn] = true
	return nil
}

func (f *File) sendWrite(pn storage.PageNo, page []byte, size int64) error {
	// The caller's buffer crosses without a defensive copy: handleWrite
	// copies it into a pooled shadow-page buffer, and it has run — as a
	// procedure call here, inside the Cast at a remote SS — before this
	// returns and the caller reuses the buffer.
	k := f.k
	return netsim.CastAt(k.node, f.ss, mWrite, k.handleWrite, &writeReq{ID: f.id, Page: pn, Data: page, Size: size})
}

// handleWrite is the SS side of the write protocol: allocate a shadow
// page, install it in the in-core inode. "The entire shadow page
// mechanism is implemented at the SS and is transparent to the US"
// (§2.3.6).
func (k *Kernel) handleWrite(from SiteID, req *writeReq) error {
	c := k.container(req.ID.FG)
	if c == nil {
		return fmt.Errorf("%w: %v", ErrNoStorageSite, req.ID)
	}
	k.mu.Lock()
	sv := k.ssState[req.ID]
	if sv == nil || sv.writerUS != from {
		k.mu.Unlock()
		// The modify open is gone (e.g. cleaned up after a partition
		// change); the one-way write is dropped, and the US will learn
		// at commit/close.
		return nil
	}
	ino := sv.incore
	if req.Data == nil {
		// Truncate: shrink the page table, freeing shadow pages past
		// the new end (committed pages are freed only by commit).
		nPages := int((req.Size + storage.PageSize - 1) / storage.PageSize)
		var drop []storage.PhysPage
		for i := nPages; i < len(ino.Pages); i++ {
			if sv.shadow(i) {
				drop = append(drop, ino.Pages[i])
			}
		}
		ino.Pages = ino.Pages[:min(nPages, len(ino.Pages))]
		ino.Size = req.Size
		sv.truncated = true
		k.mu.Unlock()
		c.FreePages(drop...)
		return nil
	}
	// If this logical page was already shadowed during this modify
	// session, reuse the shadow page in place (§2.3.6: "After the first
	// time the page is modified, it is marked as being a shadow page
	// and reused in place").
	var reuse storage.PhysPage
	if int(req.Page) < len(ino.Pages) && sv.shadow(int(req.Page)) {
		reuse = ino.Pages[req.Page]
	}
	k.mu.Unlock()

	pp, err := c.WritePage(req.Data)
	if err != nil {
		return err
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.ssState[req.ID] != sv {
		// The session ended while we wrote: discard the page.
		c.FreePages(pp)
		return nil
	}
	for int(req.Page) >= len(ino.Pages) {
		ino.Pages = append(ino.Pages, storage.PhysPageNil)
	}
	ino.Pages[req.Page] = pp
	if reuse != storage.PhysPageNil {
		c.FreePages(reuse)
	}
	ino.Size = req.Size
	sv.dirty[req.Page] = true
	return nil
}

// Truncate sets the file size (shrinking drops whole pages past the new
// end). Implemented as an in-core inode update committed like any other
// modification.
func (f *File) Truncate(size int64) error {
	if f.closed {
		return ErrClosed
	}
	if f.mode != ModeModify {
		return ErrReadOnly
	}
	if size < 0 {
		return fmt.Errorf("fs: negative size %d", size)
	}
	// Data == nil marks a truncate in the write protocol.
	k := f.k
	if err := netsim.CastAt(k.node, f.ss, mWrite, k.handleWrite, &writeReq{ID: f.id, Page: 0, Data: nil, Size: size}); err != nil {
		return err
	}
	f.size, f.ino.Size = size, size
	f.dirty[0] = true
	return nil
}

// Commit atomically commits all changes made through this handle since
// the last commit (§2.3.6). On return the new version is durable at
// the SS and propagation to the other storage sites has been scheduled.
func (f *File) Commit() error {
	_, err := f.commitOrAbort(false, nil)
	return err
}

// Abort undoes all changes back to the previous commit point.
func (f *File) Abort() error {
	_, err := f.commitOrAbort(true, nil)
	return err
}

// commitOrAbort is Commit or Abort, returning the storage site's reply.
// A commit this site makes as the storage site posts its note to box
// when box is not nil (commit); a remote storage site sends its own.
func (f *File) commitOrAbort(abort bool, box *outbox) (*commitResp, error) {
	if f.closed {
		return nil, ErrClosed
	}
	if f.stale {
		return nil, fmt.Errorf("%w: %v", ErrStale, f.id)
	}
	if f.mode != ModeModify {
		return nil, ErrReadOnly
	}
	k := f.k
	req := &commitReq{ID: f.id, US: f.us, Abort: abort}
	var r *commitResp
	var err error
	if f.ss == k.site {
		r, err = k.commit(k.site, req, box)
	} else {
		r, err = netsim.Call(k.node, f.ss, mCommit, req)
	}
	if err != nil {
		return nil, err
	}
	f.ino.VV = r.Ino.VV
	// The committed image changed (or, on abort, reverted): any pages
	// this US cached for the file are out of date.
	k.cache.invalidateFile(f.id)
	if abort {
		// Reload the committed inode image.
		f.refreshFromSS()
	}
	clear(f.dirty)
	return r, nil
}

// refreshFromSS reloads a modify handle's in-core inode from the
// committed one at the SS.
func (f *File) refreshFromSS() {
	k := f.k
	if f.ss == k.site {
		if c := k.container(f.id.FG); c != nil {
			if ino, err := c.GetInode(f.id.Inode); err == nil {
				f.ino, f.size = ino.Clone(), ino.Size
			}
		}
		return
	}
	if resp, err := netsim.Call(k.node, f.ss, mPullOpen, &pullOpenReq{ID: f.id}); err == nil {
		f.ino, f.size = resp.Ino.Clone(), resp.Ino.Size
	}
}

// handleCommit is the SS side of commit/abort. Commit installs the
// in-core inode as the disk inode (atomic), bumps the version vector at
// this site, and notifies the file's other storage sites and the CSS
// (§2.3.6). Abort discards the in-core state and frees shadow pages.
func (k *Kernel) handleCommit(from SiteID, req *commitReq) (*commitResp, error) {
	return k.commit(from, req, nil)
}

// commit is handleCommit, the commit's note posted to box when box is
// not nil, and sent at once otherwise (notifyCommit).
func (k *Kernel) commit(from SiteID, req *commitReq, box *outbox) (*commitResp, error) {
	c := k.container(req.ID.FG)
	if c == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoStorageSite, req.ID)
	}
	k.mu.Lock()
	sv := k.ssState[req.ID]
	if sv == nil || sv.writerUS != from {
		k.mu.Unlock()
		return nil, fmt.Errorf("%w: no modify open of %v from site %d", ErrStale, req.ID, from)
	}
	if req.Abort {
		// Free shadow pages; keep the session for further writes.
		drop := sv.shadowPages()
		k.mu.Unlock()
		c.FreePages(drop...)
		ino, err := c.GetInode(req.ID.Inode)
		if err != nil {
			return nil, err
		}
		k.mu.Lock()
		sv.committed, sv.incore = ino, ino.Clone()
		clear(sv.dirty)
		k.mu.Unlock()
		return &commitResp{Ino: ino}, nil
	}

	// Commit: bump the version vector at this (storage) site and move
	// the in-core inode to the disk inode.
	sv.incore.VV = sv.incore.VV.Bump(k.site)
	ino := sv.incore.Clone()
	var pages []storage.PageNo
	if !sv.truncated {
		pages = make([]storage.PageNo, 0, len(sv.dirty))
		for pn := range sv.dirty {
			pages = append(pages, pn)
		}
		// The page list rides the commit notifications; keep its order
		// independent of map iteration.
		slices.Sort(pages)
	}
	clear(sv.dirty)
	sv.truncated = false
	k.mu.Unlock()

	prev, stored := c.Version(req.ID.Inode)
	if invariant.Enabled && stored {
		// A commit must install a version that strictly dominates the
		// committed one it replaces: the in-core inode started from the
		// committed image and was just bumped at this site (§2.3.6), and
		// the single-writer lock excludes concurrent committers.
		invariant.Assertf(ino.VV.Compare(prev.VV) == vclock.Dominates,
			"fs: commit of %v would install %v over non-dominated committed %v", req.ID, ino.VV, prev.VV)
	}
	if err := c.CommitInode(ino); err != nil {
		return nil, err
	}

	k.mu.Lock()
	sv.committed = ino
	k.mu.Unlock()

	k.notifyCommit(req.ID, ino, prev.Sites, pages, box)
	return &commitResp{Ino: ino}, nil
}

// commitNote is the note of origin's commit of version ino of file id;
// pages lists the logical pages the commit changed, nil meaning the
// whole file.
func commitNote(id storage.FileID, ino *storage.Inode, origin SiteID, pages []storage.PageNo) *propNotify {
	note := &propNotify{ID: id, VV: ino.VV, Origin: origin, Pages: pages, Sites: ino.Sites}
	if ino.Deleted {
		// A delete ships its whole state, the tombstone: the packs commit
		// it with no pull.
		note.Pages, note.Tomb = nil, ino
	}
	return note
}

// notifyCommit sends the note of this site's commit of version ino of
// id (§2.3.6): every storage site of the file pulls the new version, a
// site the commit dropped from the list (prev is the list of the
// version it replaced) retires its copy, and the CSS's latest-version
// knowledge stays current. The note is posted to box, which the
// namespace operation the commit is part of flushes once its last
// commit is made, or, with no box, sent at once.
func (k *Kernel) notifyCommit(id storage.FileID, ino *storage.Inode, prev []SiteID, pages []storage.PageNo, box *outbox) {
	note := commitNote(id, ino, k.site, pages)
	if box == nil {
		var now outbox
		k.post(&now, note, prev)
		k.flush(&now)
	} else {
		k.post(box, note, prev)
	}
	// The committing site applies its own note locally (updates CSS
	// knowledge if this site is the CSS; the pull is a no-op since our
	// copy is the new version).
	k.applyPropNotify(k.site, note)
}

// outbox gathers commit notes to be sent as one fs.propnotify per
// destination site, each with the notes bound for it in commit order
// (flush). A create or an unlink at the CSS (handleCreate, handleDirOp)
// passes its own outbox down to every commit it makes, and flushes it
// once, after the last commit and before it replies; an outbox is never
// the kernel's, since two operations may run at one CSS at once. It
// lives on its owner's stack: the notes are the only allocation.
type outbox struct {
	first, last *propNotify // the notes, chained in commit order
	n           int
	dests       [8]noteDest // in the order first named, nd of them
	nd          int
}

// noteDest is a destination of an outbox's notes: bit i of notes is set
// when the outbox's i-th note goes to site.
type noteDest struct {
	site  SiteID
	notes uint32
}

// post adds note to box, bound for every site noteDests names; prev is
// the storage-site list of the version the note's commit replaced.
func (k *Kernel) post(box *outbox, note *propNotify, prev []SiteID) {
	var buf [len(outbox{}.dests)]SiteID
	to := k.noteDests(buf[:0], note, prev)
	fresh := 0
	for _, s := range to {
		if box.dest(s) < 0 {
			fresh++
		}
	}
	if box.n == 32 || box.nd+fresh > len(box.dests) {
		// Past the notes or sites an outbox routes, which no namespace
		// operation in a filegroup of nine packs or fewer reaches: send
		// what box holds, then this note alone, so that every site still
		// gets its notes in commit order.
		k.flush(box)
		*box = outbox{}
		for _, s := range to {
			netsim.Cast(k.node, s, mPropNotify, note) //locus:vet-allow uncheckedcall unreachable peers pull at merge
		}
		return
	}
	if box.first == nil {
		box.first = note
	} else {
		box.last.Next = note
	}
	box.last = note
	for _, s := range to {
		j := box.dest(s)
		if j < 0 {
			j = box.nd
			box.dests[j].site = s
			box.nd++
		}
		box.dests[j].notes |= 1 << box.n
	}
	box.n++
}

// dest is the index of site s among box's destinations, -1 if none.
func (box *outbox) dest(s SiteID) int {
	for j := range box.nd {
		if box.dests[j].site == s {
			return j
		}
	}
	return -1
}

// noteDests appends to dst the sites a commit note goes to, each once:
// the storage sites of the new version, then those of the version the
// commit replaced (prev), so that a site the commit dropped from the
// list hears of it, then the CSS. It leaves out the note's origin and
// this site, which apply the note themselves, and a storage site out of
// this partition, which pulls at merge.
func (k *Kernel) noteDests(dst []SiteID, note *propNotify, prev []SiteID) []SiteID {
	skip := func(s SiteID) bool { return s == note.Origin || s == k.site || slices.Contains(dst, s) }
	for _, sites := range [2][]SiteID{note.Sites, prev} {
		for _, s := range sites {
			if !skip(s) && k.inPartition(s) {
				dst = append(dst, s)
			}
		}
	}
	if css, err := k.CSSOf(note.ID.FG); err == nil && !skip(css) {
		dst = append(dst, css)
	}
	return dst
}

// flush sends box's notes: one fs.propnotify to each destination, with
// the notes bound for it in commit order. A destination bound for the
// chain's last notes gets them where they lie, from its first on (the
// whole chain, as a rule); any other, a chain of copies.
func (k *Kernel) flush(box *outbox) { k.flushExcept(box, vclock.NoSite) }

// flushExcept is flush holding back the notes bound for site hold, which
// it returns (nil when none) for a message to hold that carries them.
func (k *Kernel) flushExcept(box *outbox, hold SiteID) (held *propNotify) {
	for _, d := range box.dests[:box.nd] {
		first := bits.TrailingZeros32(d.notes)
		msg, i := box.first, 0
		for ; i < first; i++ {
			msg = msg.Next
		}
		if all := uint32(1)<<box.n - 1; d.notes != all>>first<<first {
			msg = copyNotes(msg, d.notes>>first)
		}
		if d.site == hold {
			held = msg
			continue
		}
		netsim.Cast(k.node, d.site, mPropNotify, msg) //locus:vet-allow uncheckedcall unreachable peers pull at merge
	}
	return held
}

// copyNotes chains copies of the notes of the chain from note on whose
// bits are set in mask, bit 0 for note itself.
func copyNotes(note *propNotify, mask uint32) *propNotify {
	var first, last *propNotify
	for ; note != nil; note, mask = note.Next, mask>>1 {
		if mask&1 == 0 {
			continue
		}
		cp := *note
		cp.Next = nil
		if first == nil {
			first = &cp
		} else {
			last.Next = &cp
		}
		last = &cp
	}
	return first
}

// Close closes the handle. Closing a modify handle commits its
// outstanding changes ("closing a file commits it" — §2.3.6) in the
// 4-message close protocol of §2.3.3 itself: the fs.close asks the SS
// to commit before it deallocates in-core state, and the SS's fs.ssclose
// carries the commit's note to the CSS. The commit's error is the
// close's, returned once the writer's session has ended. Internal opens close
// with no messages.
func (f *File) Close() error {
	if f.closed {
		return ErrClosed
	}
	k := f.k
	defer func() {
		k.mu.Lock()
		f.closed = true
		delete(k.openFiles, f)
		k.mu.Unlock()
		if f.mode == ModeModify {
			k.giveBackRecalled(f.css, f.id, f.wserial)
		}
	}()

	if f.stale {
		return nil // error already delivered through the descriptor
	}
	if f.internal {
		return nil
	}
	if f.delegated {
		// Zero wire messages: no reader holds a lock-table record or a
		// session at its storage site, and a delegated one's close, like
		// its open, sends nothing, even if its delegation was revoked
		// while it read.
		return nil
	}
	commit := f.mode == ModeModify && len(f.dirty) > 0
	_, err := netsim.CallAt(k.node, f.ss, mClose, k.handleClose,
		&closeReq{ID: f.id, US: f.us, Mode: f.mode, Serial: f.wserial, Commit: commit})
	if commit {
		// The committed image changed: any pages this US cached for the
		// file are out of date.
		k.cache.invalidateFile(f.id)
	}
	return err
}

// handleClose is the SS side of the close protocol: commit the writer's
// changes when asked, end the writer's session, then inform the CSS (the
// response ordering fixes the reopen race described in the paper's close
// footnote). The commit's notes go out before the CSS hears of the
// close, the CSS's own riding the fs.ssclose, and a commit that fails is
// the close's error once the writer is released.
func (k *Kernel) handleClose(from SiteID, req *closeReq) (*netsim.Ack, error) {
	var box outbox
	var cerr error
	if req.Commit {
		_, cerr = k.commit(from, &commitReq{ID: req.ID, US: req.US}, &box)
	}
	k.mu.Lock()
	var freed []storage.PhysPage
	if sv := k.ssState[req.ID]; sv != nil && req.Mode == ModeModify && sv.writerUS == from && sv.writerSerial == req.Serial {
		// Uncommitted changes at close are discarded (a close with
		// changes outstanding committed them above).
		freed = k.dropWriterLocked(sv)
	}
	k.mu.Unlock()
	k.freeShadow(req.ID.FG, freed)

	// Tell the CSS so it can deallocate in-core state and update
	// synchronization information; we respond to the US only after the
	// CSS has answered, closing the reopen race.
	css, err := k.CSSOf(req.ID.FG)
	if err != nil {
		k.flush(&box)
		return nil, cerr // no CSS in partition: nothing to tell
	}
	screq := &ssCloseReq{ID: req.ID, SS: k.site, US: from, Mode: req.Mode, Serial: req.Serial,
		Notes: k.flushExcept(&box, css)}
	if c := k.container(req.ID.FG); c != nil {
		if cur, ok := c.Version(req.ID.Inode); ok {
			screq.VV = cur.VV
			screq.Sites = cur.Sites
		}
	}
	if _, err := netsim.CallAt(k.node, css, mSSClose, k.handleSSClose, screq); err != nil && screq.Notes != nil {
		// The notes are idempotent: cast them as the fs.propnotify they
		// would have been, lest a lost close cost the CSS a version.
		netsim.Cast(k.node, css, mPropNotify, screq.Notes) //locus:vet-allow uncheckedcall CSS unreachable: it learns the version at merge
	}
	return nil, cerr
}

// handleSSClose is the CSS side of the close protocol. The commit notes
// the close carries are applied first, as their fs.propnotify would
// have been.
func (k *Kernel) handleSSClose(from SiteID, req *ssCloseReq) (*netsim.Ack, error) {
	for note := req.Notes; note != nil; note = note.Next {
		k.applyPropNotify(from, note)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	e := k.cssState[req.ID]
	if e == nil {
		return nil, nil
	}
	// Absorb the closing SS's version knowledge before releasing any
	// lock, so the next open synchronizes against the new version even
	// if the commit notification cast is still in flight.
	e.absorb(req.VV, req.Sites)
	if req.Mode == ModeModify {
		k.releaseWriterLocked(e, req.US, req.Serial)
	}
	return nil, nil
}

// ReadAll reads the whole file through the handle. A reader learns the
// file's size from the SS with each page (ReadAt), so a file that a
// commit or a pull at the SS made longer since the handle last read is
// read again at its new size, not cut at the old one.
func (f *File) ReadAll() ([]byte, error) {
	for {
		buf := make([]byte, f.size)
		n, err := f.ReadAt(buf, 0)
		if err != nil {
			return nil, err
		}
		if f.size <= int64(len(buf)) {
			return buf[:n], nil
		}
	}
}

// WriteAll truncates the file to exactly p and leaves it uncommitted.
func (f *File) WriteAll(p []byte) error {
	if err := f.Truncate(0); err != nil {
		return err
	}
	if len(p) == 0 {
		return nil
	}
	_, err := f.WriteAt(p, 0)
	return err
}
