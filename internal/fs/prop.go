package fs

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/lint/invariant"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// handlePropNotify receives the one-way commit notification (§2.3.6):
// one or more commits' notes, applied in commit order.
func (k *Kernel) handlePropNotify(from SiteID, note *propNotify) error {
	for ; note != nil; note = note.Next {
		k.applyPropNotify(from, note)
	}
	return nil
}

// applyPropNotify updates CSS knowledge and queues a propagation pull
// if this site stores (or should store) the file and its copy is out of
// date. A delete needs no pull: its notification carries the tombstone
// (takeTombstone).
func (k *Kernel) applyPropNotify(_ SiteID, note *propNotify) {
	// A new committed version exists somewhere: drop any pages this
	// site's using-site cache holds for the file, so a stale read
	// through an already-open handle is impossible once the
	// notification arrives (§2.3.6).
	k.cache.invalidateFile(note.ID)
	// A read delegation stamped with an older VV no longer serves the
	// current version: drop it, so the next open revalidates at the
	// CSS.
	k.dropLeaseIfStale(note.ID, note.VV)
	// CSS bookkeeping: remember the most current version and storage
	// sites.
	if css, err := k.CSSOf(note.ID.FG); err == nil && css == k.site {
		k.mu.Lock()
		if e := k.cssState[note.ID]; e != nil {
			e.absorb(note.VV, note.Sites)
			// Delegate records stamped with an older VV are *not*
			// pruned here: the CSS must stay conservative (a record
			// without a holder is healed by the next revoke round, but
			// a holder without a record would serve stale reads
			// unsupervised).
		}
		k.mu.Unlock()
	}

	c := k.container(note.ID.FG)
	if c == nil {
		return
	}
	cur, stores := c.Version(note.ID.Inode)
	should := containsSite(note.Sites, k.site)
	if !stores && !should {
		return
	}
	// A delete's copy here becomes its tombstone with no pull, a copy
	// about to be retired included, so that the retirement need not wait
	// for a pack that never held the file.
	if note.Tomb != nil && k.takeTombstone(c, note, stores) && should {
		return
	}
	if stores && !should && len(note.Sites) > 0 {
		// Replica retirement: discard our copy once the listed sites
		// all hold the new version.
		k.mu.Lock()
		if t := k.pendingProp[note.ID]; t == nil {
			k.pendingProp[note.ID] = &propTask{
				id: note.ID, vv: note.VV, origin: note.Origin,
				drop: true, sites: append([]SiteID(nil), note.Sites...),
			}
			k.propQueue = append(k.propQueue, note.ID)
		} else if t.drop && note.VV.Compare(t.vv) == vclock.Dominates {
			// A writer served from this copy committed a newer version
			// (the CSS's own copy serves a modify open until it is
			// retired): the copy may go only once the listed sites hold
			// that one.
			t.vv, t.sites = note.VV, append([]SiteID(nil), note.Sites...)
		}
		k.mu.Unlock()
		return
	}
	if stores && cur.VV.DominatesOrEqual(note.VV) {
		return // already current (or the origin itself)
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	t := k.pendingProp[note.ID]
	if t == nil {
		t = &propTask{id: note.ID, vv: note.VV, origin: note.Origin, pages: note.Pages}
		if t.pages != nil {
			if stores && follows(cur.VV, note) {
				t.base = cur.VV
			} else {
				t.pages = nil // the list is of changes to a version this pack lacks
			}
		}
		k.pendingProp[note.ID] = t
		k.propQueue = append(k.propQueue, note.ID)
		return
	}
	// Fold the new notification into the existing task.
	if t.drop {
		// The site was re-added to the storage list: turn the
		// retirement into an ordinary pull.
		t.drop = false
		t.sites = nil
		t.vv = note.VV
		t.origin = note.Origin
		t.pages = nil
		return
	}
	if t.pages != nil {
		if note.Pages == nil || !follows(t.vv, note) {
			t.pages = nil // whole-file pull subsumes page list
		} else {
			t.pages = append(t.pages, note.Pages...)
		}
	}
	if note.VV.Compare(t.vv) == vclock.Dominates {
		t.vv = note.VV
		t.origin = note.Origin
	}
}

// follows reports whether note's commit was made on version vv: a
// commit bumps the committing site's entry of the version it started
// from (handleCommit), so a page list is the changes to that version
// alone. A copy at any other version, one that missed a notification,
// say, pulls the whole file. The test is vv.Bump(note.Origin) ==
// note.VV, without building the vector: note.VV is ahead of vv by one
// update in all, the origin's.
func follows(vv vclock.VV, note *propNotify) bool {
	return note.VV.Get(note.Origin) == vv.Get(note.Origin)+1 && note.VV.Total() == vv.Total()+1 &&
		note.VV.Compare(vv) == vclock.Dominates
}

// takeTombstone is applyPropNotify's step for a delete (§2.3.7: the
// storage sites release pages as it propagates). A copy this pack holds
// becomes the note's tombstone by a local commit, with the checks a pull
// of it makes (installTombstone). A pack that never held the file records
// nothing: the directory entry's tombstone carries the delete's vector
// for the merge (§5.5), and CollectGarbage counts a pack with no copy as
// one that has seen the delete. Either way a queued or stalled pull the
// tombstone supersedes is forgotten; a retirement is left to run. It
// reports false, changing nothing, when the local commit fails, and the
// note then queues a pull like any other.
func (k *Kernel) takeTombstone(c *storage.Container, note *propNotify, stores bool) bool {
	if stores && !installTombstone(c, note.ID, note.Tomb) {
		return false
	}
	superseded := func(t *propTask) bool {
		return t.id == note.ID && !t.drop && note.VV.DominatesOrEqual(t.vv)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if t := k.pendingProp[note.ID]; t != nil && superseded(t) {
		delete(k.pendingProp, note.ID)
		k.propQueue = slices.DeleteFunc(k.propQueue, func(id storage.FileID) bool { return id == note.ID })
	}
	k.stalledProp = slices.DeleteFunc(k.stalledProp, superseded)
	return true
}

// PendingPropagations reports how many files have queued pulls.
func (k *Kernel) PendingPropagations() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.pendingProp)
}

// DrainPropagation runs the kernel propagation process until the queue
// empties, pulling new versions from their origin sites. It returns
// the number of files brought up to date. Pulls that fail (origin
// unreachable, version raced ahead) stay queued for a later drain —
// the local copy remains a coherent, complete, albeit old version
// (§2.3.6).
//
// Jobs are served in queue order on the calling goroutine, so the wire
// schedule of a drain is a pure function of the queue.
func (k *Kernel) DrainPropagation() int {
	type job struct{ live, snap *propTask }
	// Dequeue up to the current queue length and snapshot each task: a
	// late notification may fold newer state into a queued task while
	// its pull runs, and items requeued during this drain (retries)
	// wait for the next drain, so one call always terminates.
	k.mu.Lock()
	var jobs []job
	for budget := len(k.propQueue); budget > 0 && len(k.propQueue) > 0; budget-- {
		id := k.propQueue[0]
		k.propQueue = k.propQueue[1:]
		t := k.pendingProp[id]
		if t == nil {
			continue
		}
		snap := &propTask{
			id: t.id, vv: t.vv, origin: t.origin, base: t.base,
			pages: append([]storage.PageNo(nil), t.pages...),
			drop:  t.drop, sites: append([]SiteID(nil), t.sites...),
		}
		if t.pages == nil {
			snap.pages = nil
		}
		jobs = append(jobs, job{live: t, snap: snap})
	}
	k.mu.Unlock()

	done := 0
	for _, j := range jobs {
		ok := k.pullFile(j.snap)
		k.mu.Lock()
		cur := k.pendingProp[j.snap.id]
		if cur == j.live {
			evolved := !cur.vv.Equal(j.snap.vv) || cur.drop != j.snap.drop
			switch {
			case ok && !evolved:
				delete(k.pendingProp, j.snap.id)
				done++
			case !ok && !k.inPartitionLocked(j.snap.origin):
				// Origin gone: keep the task but stop spinning; a merge
				// or fresh notification requeues it.
				delete(k.pendingProp, j.snap.id)
				k.stalledProp = append(k.stalledProp, j.live)
			default:
				k.propQueue = append(k.propQueue, j.snap.id)
			}
		}
		k.mu.Unlock()
	}
	return done
}

// DebugPendingPropagations describes the queued tasks in FileID order
// (test diagnostics).
func (k *Kernel) DebugPendingPropagations() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	s := ""
	for _, id := range sortedFileIDs(k.pendingProp) {
		t := k.pendingProp[id]
		s += fmt.Sprintf("[site %d: %v vv=%v origin=%d drop=%v sites=%v] ", k.site, id, t.vv, t.origin, t.drop, t.sites)
	}
	return s
}

// RequeueStalledPropagations puts stalled pulls back on the queue
// (called after a partition merge makes origins reachable again).
func (k *Kernel) RequeueStalledPropagations() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, t := range k.stalledProp {
		// A stalled task a fresh notification superseded is dropped.
		if k.pendingProp[t.id] == nil {
			k.pendingProp[t.id] = t
			k.propQueue = append(k.propQueue, t.id)
		}
	}
	k.stalledProp = nil
}

// pullFile propagates one file in from its origin: an internal open of
// the committed snapshot at the origin, transfers of the missing
// pages, and a normal local commit — so a failure mid-pull leaves the
// old coherent copy (§2.3.6: "this propagation-in procedure uses the
// standard commit mechanism").
//
// With bulk pull (the default; Features.SerialPull turns it off) the
// open piggybacks the first window of data pages and the rest arrive
// PullWindow pages per fs.pullpages exchange, so a pull of K pages
// costs 1+⌈(K−W)/W⌉ round trips instead of 1+K. A pull that fails frees
// the pages it adopted before it returns, so the old committed copy is
// all a failure leaves, and the retry is a whole new pull.
func (k *Kernel) pullFile(t *propTask) bool {
	c := k.container(t.id.FG)
	if c == nil {
		return true // nothing to store into; drop the task
	}
	if t.drop {
		return k.retireReplica(c, t)
	}

	// The page list, if this pack's copy is still the version it lists
	// the changes to.
	pages := t.pages
	if v, ok := c.Version(t.id.Inode); !ok || !v.VV.Equal(t.base) {
		pages = nil
	}
	bulk := !k.cfg.Features.SerialPull
	req := &pullOpenReq{ID: t.id}
	if bulk {
		req.Window = PullWindow
		if pages != nil {
			req.Need = uniquePages(pages)
		}
	}
	por, err := netsim.Call(k.node, t.origin, mPullOpen, req)
	if err != nil {
		if errors.Is(err, storage.ErrNoInode) || errors.Is(err, ErrNotFound) {
			// The origin retired its replica before we pulled.
			// Re-resolve: find the current dominant copy, or drop the
			// task if the file is gone (or we are no longer a storage
			// site and never stored it).
			sums := k.ProbeAll(t.id)
			if len(sums) == 0 {
				return true
			}
			i, _ := LatestCopy(sums)
			best := sums[i]
			if !containsSite(best.Sites, k.site) && !c.HasInode(t.id.Inode) {
				return true
			}
			if best.Site != t.origin && best.Site != k.site {
				// Point the live task (not just this attempt's snapshot)
				// at the surviving copy for the retry.
				old := t.origin
				t.origin = best.Site
				k.mu.Lock()
				if live := k.pendingProp[t.id]; live != nil && live.origin == old {
					live.origin = best.Site
				}
				k.mu.Unlock()
			}
		}
		return false
	}
	// The piggybacked pages are this site's now (the origin served
	// copies): the page loop below takes the ones the pull uses out of
	// their slots, and whatever is left on any way out goes back to the
	// pool.
	defer putPageBufs(por.First)
	src := por.Ino
	if src == nil {
		return false
	}

	// Never install a replica at a site outside the file's storage-site
	// list; if we hold a copy but fell off the list, retire instead.
	if !containsSite(src.Sites, k.site) {
		if !c.HasInode(t.id.Inode) {
			return true
		}
		if src.Deleted && !installTombstone(c, t.id, src) {
			return false
		}
		// Mark the live task (not just this attempt's snapshot) a
		// retirement too, unless a newer note changed it meanwhile: while
		// a listed site lags, the next drain retries the retirement with
		// no pull, and lookCached sees it.
		pulled := t.vv
		t.drop, t.sites, t.vv = true, slices.Clone(src.Sites), src.VV
		k.mu.Lock()
		if live := k.pendingProp[t.id]; live != nil && live.vv.Equal(pulled) {
			live.drop, live.sites, live.vv = true, slices.Clone(src.Sites), src.VV
		}
		k.mu.Unlock()
		return k.retireReplica(c, t)
	}

	if src.Deleted {
		return installTombstone(c, t.id, src)
	}
	if install, ok := supersedes(c, t.id, src.VV); !install {
		return ok
	}

	// Build the new local page table. When the notification named the
	// modified pages and we have the copy they modify, only those pages
	// are pulled; otherwise the whole file is.
	pullAll := pages == nil
	need := make(map[storage.PageNo]bool)
	var localPages []storage.PhysPage
	if !pullAll {
		for _, pn := range pages {
			need[pn] = true
		}
		local, err := c.GetInode(t.id.Inode)
		if err != nil {
			return false
		}
		localPages = local.Pages
	}

	newIno := src.Clone()
	newIno.Pages = make([]storage.PhysPage, len(src.Pages))
	// The pages to transfer arrive in batches (idx: their logical
	// indexes, data: their buffers), each installed before the next is
	// asked for: first those the open piggybacked, then one batch per
	// exchange for the rest (fetch).
	var firstIdx [PullWindow]int
	var firstData [PullWindow][]byte
	idx, data := firstIdx[:0], firstData[:0]
	var fetch []int
	for i, phys := range src.Pages {
		switch {
		case phys == storage.PhysPageNil:
			// A hole.
		case !pullAll && !need[storage.PageNo(i)] && i < len(localPages) && localPages[i] != storage.PhysPageNil:
			// Unchanged page: keep the local physical page.
			newIno.Pages[i] = localPages[i]
		default:
			if j := slices.Index(por.FirstPhys, phys); j >= 0 && j < len(por.First) && por.First[j] != nil {
				idx, data = append(idx, i), append(data, por.First[j])
				por.First[j] = nil
			} else {
				fetch = append(fetch, i)
			}
		}
	}
	// adopted lists the pages installed so far. They are this pull's
	// until the commit references them, and every failure frees them.
	adopted := make([]storage.PhysPage, 0, len(idx)+len(fetch))
	for {
		// The container adopts each arrived buffer as the new page ("when
		// each page arrives, the buffer that contains it is renamed and
		// sent out to secondary storage"): nothing is copied.
		for j, buf := range data {
			pp, err := c.AdoptPage(buf)
			if err != nil {
				// A refused buffer is not a page; the rest go back.
				putPageBufs(data[j+1:])
				c.FreePages(adopted...)
				return false
			}
			newIno.Pages[idx[j]] = pp
			adopted = append(adopted, pp)
		}
		if len(fetch) == 0 {
			break
		}
		w := 1
		if bulk {
			w = min(len(fetch), PullWindow)
		}
		idx, fetch = fetch[:w], fetch[w:]
		if data, err = k.pullBatch(t, src, idx, bulk); err != nil {
			c.FreePages(adopted...)
			return false
		}
	}
	if err := c.CommitInode(newIno); err != nil {
		c.FreePages(adopted...)
		return false
	}
	return true
}

// supersedes is the version check a copy arriving at this pack passes
// before it replaces the local one: install is true when vv strictly
// dominates it, or there is none.
// Otherwise nothing is installed, and ok is the arrival's result: an
// equal or older vv is already current, and a concurrent one is a
// merge-time conflict, which marks the local copy so normal opens fail
// and leaves resolution to the reconciliation layer (§4.6).
func supersedes(c *storage.Container, id storage.FileID, vv vclock.VV) (install, ok bool) {
	cur, stores := c.Version(id.Inode)
	if stores {
		switch vv.Compare(cur.VV) {
		case vclock.Equal, vclock.Dominated:
			return false, true
		case vclock.Concurrent:
			committed, err := c.GetInode(id.Inode)
			if err != nil {
				return false, false
			}
			local := committed.Clone()
			local.Conflict = true
			return false, c.CommitInode(local) == nil
		}
	}
	// Installing vv over the local copy needs it strictly to dominate:
	// propagation only ever moves a replica forward in version-vector
	// order (§4.2). The concurrent and dominated cases were dispatched
	// above.
	invariant.Assertf(!stores || vv.Compare(cur.VV) == vclock.Dominates,
		"fs: arrival of %v would install %v over non-dominated local %v", id, vv, cur.VV)
	return true, true
}

// installTombstone commits tomb, a deleted version of id, over this
// pack's copy when supersedes lets it: a tombstone keeps the inode and
// its vector, and its pages are released. A pull of a tombstone and a
// delete's notification (takeTombstone) both install it here.
func installTombstone(c *storage.Container, id storage.FileID, tomb *storage.Inode) bool {
	if install, ok := supersedes(c, id, tomb.VV); !install {
		return ok
	}
	local := tomb.Clone()
	local.Pages = nil
	local.Size = 0
	return c.CommitInode(local) == nil
}

// pullBatch transfers the pages of snapshot src at logical indexes idx
// from t's origin: one fs.pullpages exchange of up to PullWindow pages,
// or with bulk off one fs.readphys exchange for a single page (the
// pre-bulk protocol, kept pinnable behind Features.SerialPull). The
// caller owns the buffers returned.
func (k *Kernel) pullBatch(t *propTask, src *storage.Inode, idx []int, bulk bool) ([][]byte, error) {
	if !bulk {
		rp, err := netsim.Call(k.node, t.origin, mReadPhys, &readPhysReq{FG: t.id.FG, Phys: src.Pages[idx[0]]})
		if err != nil {
			return nil, err
		}
		return [][]byte{rp.Data}, nil
	}
	req := &pullPagesReq{FG: t.id.FG, Phys: make([]storage.PhysPage, 0, len(idx))}
	for _, i := range idx {
		req.Phys = append(req.Phys, src.Pages[i])
	}
	pr, err := netsim.Call(k.node, t.origin, mPullPages, req)
	if err != nil {
		return nil, err
	}
	if len(pr.Pages) != len(idx) {
		putPageBufs(pr.Pages)
		return nil, fmt.Errorf("fs: pull window of %d pages answered with %d", len(idx), len(pr.Pages))
	}
	return pr.Pages, nil
}

// putPageBufs returns page buffers the caller owns to the pool; nil
// slots (pages that found another owner) are skipped.
func putPageBufs(pages [][]byte) {
	for _, buf := range pages {
		storage.PutPageBuf(buf)
	}
}

// uniquePages returns the sorted distinct page numbers of pns.
func uniquePages(pns []storage.PageNo) []storage.PageNo {
	seen := make(map[storage.PageNo]bool, len(pns))
	out := make([]storage.PageNo, 0, len(pns))
	for _, pn := range pns {
		if !seen[pn] {
			seen[pn] = true
			out = append(out, pn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// retireReplica drops this pack's copy of a file that moved away, but
// only after confirming every site in the new storage list holds the
// current version — the "delete" half of add-then-delete must never
// destroy the last current copy. The sites are probed in list order.
// A copy that is a tombstone holds nothing to lose, and a listed site
// that holds no copy has seen the delete.
func (k *Kernel) retireReplica(c *storage.Container, t *propTask) bool {
	local, stores := c.Version(t.id.Inode)
	if !stores {
		return true
	}
	// A writer's session here must not lose its copy underneath it;
	// retry later. A reader served from here reopens another copy of its
	// version (ReadAt, reopenElsewhere).
	k.mu.Lock()
	_, writing := k.ssState[t.id]
	k.mu.Unlock()
	if writing {
		return false
	}
	var remote []SiteID
	for _, s := range t.sites {
		if s == k.site {
			return true // still listed after all: keep the copy
		}
		if !k.inPartition(s) {
			return false
		}
		remote = append(remote, s)
	}
	for _, s := range remote {
		r, err := netsim.Call(k.node, s, mGetVV, &getVVReq{ID: t.id})
		if err != nil {
			return false // unreachable
		}
		// A pack that never held a deleted file records nothing of the
		// delete, and has seen it, as CollectGarbage counts it.
		if r.Has && !r.VV.DominatesOrEqual(t.vv) || !r.Has && !local.Deleted {
			return false // that site hasn't pulled the version yet
		}
	}
	c.DropInode(t.id.Inode)
	return true
}

// handlePullOpen returns a committed snapshot of the file for a
// propagation pull, piggybacking the first window of data pages when
// the puller asked for one.
func (k *Kernel) handlePullOpen(_ SiteID, req *pullOpenReq) (*pullOpenResp, error) {
	c := k.container(req.ID.FG)
	if c == nil {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, req.ID)
	}
	ino, err := c.GetInode(req.ID.Inode)
	if err != nil {
		return nil, err
	}
	// The response crosses the in-process transport by pointer: the
	// puller reads this site's committed inode where it lies and Clones it
	// for the copy it installs.
	resp := &pullOpenResp{Ino: ino}
	if req.Window > 0 && !ino.Deleted {
		w := req.Window
		if w > PullWindow {
			w = PullWindow
		}
		var need map[storage.PageNo]bool
		if req.Need != nil {
			need = make(map[storage.PageNo]bool, len(req.Need))
			for _, pn := range req.Need {
				need[pn] = true
			}
		}
		for i := range ino.Pages {
			if len(resp.First) == w {
				break
			}
			if ino.Pages[i] == storage.PhysPageNil {
				continue
			}
			if need != nil && !need[storage.PageNo(i)] {
				continue
			}
			// A pooled copy the response owns: the puller adopts it or
			// Puts it, and the committed page stays this container's alone.
			data, err := c.ReadPage(ino.Pages[i])
			if err != nil {
				break // partial window is fine; the puller fetches the rest
			}
			resp.FirstPhys = append(resp.FirstPhys, ino.Pages[i])
			resp.First = append(resp.First, data)
		}
		if len(resp.First) > 0 {
			k.meter().AddPullWindow(len(resp.First))
		}
	}
	return resp, nil
}

// handleReadPhys reads one immutable physical page for a pull.
func (k *Kernel) handleReadPhys(_ SiteID, req *readPhysReq) (*readResp, error) {
	c := k.container(req.FG)
	if c == nil {
		return nil, fmt.Errorf("fs: site %d has no pack of filegroup %d", k.site, req.FG)
	}
	data, err := c.ReadPage(req.Phys)
	if err != nil {
		return nil, err
	}
	return &readResp{Data: data}, nil
}

// handlePullPages reads one window of immutable physical pages for a
// bulk pull. Shadow paging keeps the snapshot's pages immutable while
// any committed inode references them, so the window is torn-write-free
// without holding any lock across the reads.
func (k *Kernel) handlePullPages(_ SiteID, req *pullPagesReq) (*pullPagesResp, error) {
	if len(req.Phys) > PullWindow {
		return nil, fmt.Errorf("fs: pull window of %d pages exceeds limit %d", len(req.Phys), PullWindow)
	}
	c := k.container(req.FG)
	if c == nil {
		return nil, fmt.Errorf("fs: site %d has no pack of filegroup %d", k.site, req.FG)
	}
	resp := &pullPagesResp{Pages: make([][]byte, 0, len(req.Phys))}
	for _, pp := range req.Phys {
		data, err := c.ReadPage(pp)
		if err != nil {
			putPageBufs(resp.Pages) // no response will carry them
			return nil, err
		}
		resp.Pages = append(resp.Pages, data)
	}
	k.meter().AddPullWindow(len(resp.Pages))
	return resp, nil
}

// CollectGarbage reclaims delete tombstones whose deletion has been
// seen by every configured storage site of the file ("When all the
// storage sites have seen the delete, the inode can be reallocated by
// the site which has control of that inode" — §2.3.7). Returns the
// number of inodes reclaimed. Unreachable packs postpone collection.
func (k *Kernel) CollectGarbage() int {
	collected := 0
	for _, fg := range k.store.Filegroups() {
		c := k.container(fg)
		for _, num := range c.ListInodes() {
			if !c.Owns(num) {
				continue // only the controlling pack reallocates
			}
			ino, err := c.GetInode(num)
			if err != nil || !ino.Deleted {
				continue
			}
			id := storage.FileID{FG: fg, Inode: num}
			allSeen := true
			for _, s := range ino.Sites {
				if s == k.site {
					continue
				}
				if !k.inPartition(s) {
					allSeen = false
					break
				}
				r, err := netsim.Call(k.node, s, mGetVV, &getVVReq{ID: id})
				if err != nil {
					allSeen = false
					break
				}
				if r.Has && !r.Deleted {
					// The pack missed the delete (it was partitioned
					// away when the tombstone was committed): nudge it
					// to pull the tombstone, collect next time.
					if ino.VV.Compare(r.VV) == vclock.Dominates {
						k.SchedulePullAt([]SiteID{s}, id, ino.VV, k.site)
					}
					allSeen = false
					break
				}
			}
			if allSeen {
				c.DropInode(num)
				collected++
			}
		}
	}
	return collected
}
