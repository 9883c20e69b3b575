package fs

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// registerHandlers binds this kernel's network protocol handlers.
func (k *Kernel) registerHandlers() {
	netsim.Handle(k.node, mOpen, k.handleOpen)
	netsim.Handle(k.node, mSSOpen, k.handleSSOpen)
	netsim.Handle(k.node, mRead, k.handleRead)
	netsim.HandleCast(k.node, mWrite, k.handleWrite)
	netsim.Handle(k.node, mCommit, k.handleCommit)
	netsim.Handle(k.node, mClose, k.handleClose)
	netsim.Handle(k.node, mSSClose, k.handleSSClose)
	netsim.Handle(k.node, mCreate, k.handleCreate)
	netsim.Handle(k.node, mDirOp, k.handleDirOp)
	netsim.Handle(k.node, mSSCreate, k.handleSSCreate)
	netsim.HandleCast(k.node, mPropNotify, k.handlePropNotify)
	netsim.Handle(k.node, mPullOpen, k.handlePullOpen)
	netsim.Handle(k.node, mReadPhys, k.handleReadPhys)
	netsim.Handle(k.node, mPullPages, k.handlePullPages)
	netsim.Handle(k.node, mGetVV, k.handleGetVV)
	netsim.HandleCast(k.node, mSetAttr, k.handleSetAttr)
	netsim.Handle(k.node, mRecallWriter, k.handleRecallWriter)
	netsim.Handle(k.node, mRevokeServe, k.handleRevokeServe)
	netsim.Handle(k.node, mLeaseRevoke, k.handleLeaseRevoke)
	k.registerReconHandlers()
}

// localGetVV reads the local committed copy's version information.
func (k *Kernel) localGetVV(id storage.FileID) getVVResp {
	c := k.container(id.FG)
	if c == nil {
		return getVVResp{}
	}
	cur, ok := c.Version(id.Inode)
	if !ok {
		return getVVResp{}
	}
	return getVVResp{Has: true, VV: cur.VV, Deleted: cur.Deleted, Conflict: cur.Conflict, Sites: cur.Sites, Type: cur.Type}
}

func (k *Kernel) handleGetVV(_ SiteID, req *getVVReq) (*getVVResp, error) {
	r := k.localGetVV(req.ID)
	return &r, nil
}

// buildCSSEntry constructs the CSS lock-table entry for a file by
// polling the filegroup's packs in this partition for their committed
// version vectors — the "reconstruct the lock table ... from the
// information remaining in the partition" step of §5.6, run lazily on
// first use. Returns ErrConflict if no copy in the partition holds
// every update some copy holds (reconciliation must run first).
func (k *Kernel) buildCSSEntry(id storage.FileID) (*cssEntry, error) {
	sums := k.ProbeAll(id)
	best, ok := LatestCopy(sums)
	switch {
	case len(sums) == 0:
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	case !ok:
		return nil, fmt.Errorf("%w: %v", ErrConflict, id)
	case sums[best].Deleted:
		return nil, fmt.Errorf("%w: %v", ErrDeleted, id)
	}
	e := &cssEntry{
		id:       id,
		typ:      sums[best].Type,
		latestVV: sums[best].VV,
		sites:    sums[best].Sites,
	}
	k.mu.Lock()
	if old := k.cssState[id]; old != nil {
		e = old // raced with a concurrent build; keep the first
	} else {
		k.cssState[id] = e
	}
	k.mu.Unlock()
	return e, nil
}

func (k *Kernel) cssEntryFor(id storage.FileID) (*cssEntry, error) {
	k.mu.Lock()
	e := k.cssState[id]
	k.mu.Unlock()
	if e != nil {
		return e, nil
	}
	return k.buildCSSEntry(id)
}

// handleOpen is the CSS function of the open protocol (Figure 2). It
// enforces the synchronization policy (a single simultaneous open for
// modification), selects a storage site holding the latest version,
// and records the open in the lock table.
func (k *Kernel) handleOpen(_ SiteID, req *openReq) (*openResp, error) {
	e, err := k.cssEntryFor(req.ID)
	if err != nil {
		return nil, err
	}
	if req.Expand && e.typ == storage.TypeHiddenDir { // a search's look, whatever the mode
		req = &openReq{ID: req.ID, Mode: ModeInternal, US: req.US, USVV: req.USVV}
	}

	// Policy check + writer reservation.
	k.mu.Lock()
	for req.Mode == ModeModify && e.writerUS != vclock.NoSite {
		holder, hserial, ssHolder := e.writerUS, e.writerSerial, e.writerSS
		k.mu.Unlock()
		// Before refusing, recall the recorded registration: a close lost
		// to the network (with no partition change to trigger §5.6
		// cleanup) strands the writer slot forever otherwise.
		gone, live := k.recallWriter(req.ID, e, holder, hserial, ssHolder)
		k.mu.Lock()
		if gone {
			k.releaseWriterLocked(e, holder, hserial)
			continue // someone else may have claimed the slot meanwhile
		}
		// A file's open is refused at once (§2.3.1). A directory's waits:
		// only a kernel update holds its slot (userHandle), and that ends
		// without user code running in between. It never waits for an
		// unreachable holder, which only a partition change releases, nor
		// for its own registration (a retransmission re-executed without
		// dedup).
		if !live || !e.typ.IsDir() || holder == req.US && hserial == req.Serial {
			k.mu.Unlock()
			return nil, fmt.Errorf("%w: %v open for modification at site %d", ErrBusy, req.ID, holder)
		}
		for {
			if !k.inPartitionLocked(req.US) || req.For != vclock.NoSite && !k.inPartitionLocked(req.For) || k.cssState[req.ID] != e {
				// The waiter's site, or the site whose fs.dirop it serves,
				// left, or the lock table was rebuilt (§5.6 cleanup, a
				// crash) under it.
				k.mu.Unlock()
				return nil, fmt.Errorf("%w: %v: wait for the writer slot abandoned", ErrBusy, req.ID)
			}
			if e.writerUS != holder || e.writerSerial != hserial {
				break // released: check the slot again
			}
			k.writerFreed.Wait()
		}
	}
	if req.Mode == ModeModify {
		e.writerUS, e.writerSerial = req.US, req.Serial
	}
	latest, sites := e.latestVV, e.sites // both replaced whole, never edited: shared
	k.mu.Unlock()

	rollback := func() {
		if req.Mode == ModeModify {
			k.mu.Lock()
			k.releaseWriterLocked(e, req.US, req.Serial)
			k.mu.Unlock()
		}
	}
	if req.Mode == ModeModify {
		// Recall every outstanding read delegation in one batched round
		// before the writer proceeds (the opener's own record, if any,
		// is dropped without a callback, and the one of the site whose
		// namespace operation this open serves is kept on a directory).
		if err := k.revokeDelegates(req.ID, e, req.US, req.For); err != nil {
			rollback()
			return nil, err
		}
	}
	// wantDelegate: answer this read open, or this look at a directory
	// the looking site stores no copy of, with a read delegation
	// piggybacked on the reply (zero extra messages), if register grants
	// it.
	lookDelegate := req.Mode == ModeInternal && e.typ.IsDir() && req.USVV == nil && req.US != k.site
	wantDelegate := (req.Mode == ModeRead || lookDelegate) && !k.cfg.Features.NoDelegations

	// register records a modify open's storage site ss in the lock
	// table, and reports whether a read delegation is granted on the
	// reply to a read open or a look served the version vv. One is
	// granted only if, under the lock, no writer holds the slot and vv is
	// still the latest version: a writer revokes the delegates it finds
	// once it has claimed the slot, so an open that met a writer claiming
	// it, or whose version a writer has since committed over, is served
	// without one. A read open leaves no record but the delegate's.
	register := func(ss SiteID, vv vclock.VV) bool {
		k.mu.Lock()
		defer k.mu.Unlock()
		switch {
		case req.Mode == ModeModify:
			e.writerSS = ss
		case wantDelegate && e.writerUS == vclock.NoSite && vv.DominatesOrEqual(e.latestVV):
			if e.delegates == nil {
				e.delegates = make(map[SiteID]bool)
			}
			e.delegates[req.US] = true
			k.meter().AddLeaseGranted()
			return true
		}
		return false
	}

	// Optimization 1 (§2.3.3): the US's own copy is the latest — tell
	// it to serve itself; no storage-site message needed.
	if req.USVV != nil && req.USVV.DominatesOrEqual(latest) && containsSite(sites, req.US) {
		return &openResp{SS: req.US, Delegated: register(req.US, req.USVV)}, nil
	}

	// Optimization 2: the CSS itself stores the latest version.
	if r := k.localGetVV(req.ID); r.Has && !r.Deleted && r.VV.DominatesOrEqual(latest) {
		// A delegated read installs no serving state: committed pages
		// are served statelessly and the delegate closes locally.
		if !wantDelegate {
			if err := k.setupServe(req.ID, req.Mode, req.US, req.Serial); err != nil {
				rollback()
				return nil, err
			}
		}
		ino, err := k.container(req.ID.FG).GetInode(req.ID.Inode)
		if err != nil {
			rollback()
			return nil, err
		}
		return &openResp{SS: k.site, Ino: ino, ServeReady: true, Delegated: register(k.site, ino.VV)}, nil
	}

	// General case: poll potential storage sites (§2.3.3: "The
	// potential sites are polled to see if they will act as storage
	// sites"). The CSS's own copy was ruled out above, and the US's is
	// polled last, not skipped: optimization 1 judged it by the USVV read
	// before the request left, and a commit since by another process at
	// the US can have made it the latest.
	order := make([]SiteID, 0, 8)
	for _, s := range sites {
		if s != k.site && s != req.US {
			order = append(order, s)
		}
	}
	if req.US != k.site && containsSite(sites, req.US) {
		order = append(order, req.US)
	}
	for _, cand := range order {
		if !k.inPartition(cand) {
			continue // unreachable
		}
		r, err := netsim.Call(k.node, cand, mSSOpen, &ssOpenReq{ID: req.ID, Mode: req.Mode, US: req.US, Serial: req.Serial, NeedVV: latest, Delegated: wantDelegate})
		if err != nil {
			continue
		}
		return &openResp{SS: cand, Ino: r.Ino, ServeReady: true, Delegated: register(cand, r.Ino.VV)}, nil
	}
	rollback()
	return nil, fmt.Errorf("%w: %v (latest %v)", ErrNoStorageSite, req.ID, latest)
}

// handleSSOpen is the SS function: verify our copy is current, set up
// serving state, and return the disk inode information.
func (k *Kernel) handleSSOpen(_ SiteID, req *ssOpenReq) (*ssOpenResp, error) {
	c := k.container(req.ID.FG)
	if c == nil || !c.HasInode(req.ID.Inode) {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, req.ID)
	}
	ino, err := c.GetInode(req.ID.Inode)
	if err != nil {
		return nil, err
	}
	if !ino.VV.DominatesOrEqual(req.NeedVV) {
		// Our copy is out of date: refuse to act as storage site.
		return nil, fmt.Errorf("%w: site %d stores %v, need %v", ErrNoStorageSite, k.site, ino.VV, req.NeedVV)
	}
	if !req.Delegated {
		// A delegated read installs no reader serving state: committed
		// pages are served statelessly and the delegate closes locally.
		if err := k.setupServe(req.ID, req.Mode, req.US, req.Serial); err != nil {
			return nil, err
		}
	}
	return &ssOpenResp{Ino: ino}, nil
}

// setupServe installs SS-side serving state for an open; serial is a
// modify open's registration serial at us. Internal (unsynchronized)
// opens take no serving state.
func (k *Kernel) setupServe(id storage.FileID, mode OpenMode, us SiteID, serial uint64) error {
	if mode == ModeInternal {
		return nil
	}
	c := k.container(id.FG)
	if c == nil {
		return fmt.Errorf("%w: site %d stores no pack of filegroup %d", ErrNoStorageSite, k.site, id.FG)
	}
	// A read open needs only the two marks that take a copy out of
	// service; a modify open also needs the storage site's in-core inode
	// (§2.3.6), which shadow pages are written into: a Clone of the
	// committed one.
	var committed *storage.Inode
	var deleted, conflict bool
	if mode == ModeModify {
		ino, err := c.GetInode(id.Inode)
		if err != nil {
			return err
		}
		committed, deleted, conflict = ino, ino.Deleted, ino.Conflict
	} else {
		cur, ok := c.Version(id.Inode)
		if !ok {
			return fmt.Errorf("%w: %v at site %d", storage.ErrNoInode, id, k.site)
		}
		deleted, conflict = cur.Deleted, cur.Conflict
	}
	if deleted {
		return fmt.Errorf("%w: %v", ErrDeleted, id)
	}
	if conflict {
		return fmt.Errorf("%w: %v", ErrConflict, id)
	}
	k.mu.Lock()
	if mode == ModeModify {
		if sv := k.ssState[id]; sv != nil && sv.writerUS != vclock.NoSite {
			holder, hserial := sv.writerUS, sv.writerSerial
			k.mu.Unlock()
			// Validate before refusing (see lockvalid.go): a lost close
			// leaves serving state for a writer that no longer exists.
			if gone, _ := k.recallWriter(id, nil, holder, hserial, k.site); !gone {
				return fmt.Errorf("%w: %v already being modified", ErrBusy, id)
			}
			k.mu.Lock()
		}
	}
	defer k.mu.Unlock()
	sv := k.ssState[id]
	if sv == nil {
		sv = &ssServe{id: id, readers: make(map[SiteID]int)}
		k.ssState[id] = sv
	}
	if mode == ModeModify {
		if sv.writerUS != vclock.NoSite {
			return fmt.Errorf("%w: %v already being modified", ErrBusy, id)
		}
		sv.writerUS, sv.writerSerial = us, serial
		sv.incore = committed.Clone()
		sv.committedPages = pageSet(committed.Pages)
		sv.dirty = make(map[storage.PageNo]bool)
	} else {
		sv.readers[us]++
	}
	return nil
}

func pageSet(pages []storage.PhysPage) map[storage.PhysPage]bool {
	s := make(map[storage.PhysPage]bool, len(pages))
	for _, p := range pages {
		if p != storage.PhysPageNil {
			s[p] = true
		}
	}
	return s
}

func containsSite(ss []SiteID, s SiteID) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// OpenID opens a file by its globally unique low-level name, once: a
// live writer is ErrBusy, no current copy ErrNoStorageSite, a directory's
// modify open ErrIsDir. Most callers use Open (pathname) instead.
//
// An internal open is lookInternal plus the handle: what a caller that
// must read the file's pages without a lock needs (a pathname search
// whose directory is not in the cache, readDirAt). A caller that only
// wants what the inode says calls lookInternal and makes no handle.
func (k *Kernel) OpenID(id storage.FileID, mode OpenMode) (*File, error) {
	f, _, _, err := k.openID(id, mode, false, vclock.NoSite)
	return userHandle(f, err)
}

// userHandle is a user's open's result: a directory's modify handle is
// closed unwritten and refused, as Unix's EISDIR, so only a kernel update,
// which runs no user code before it closes, holds a directory's slot.
func userHandle(f *File, err error) (*File, error) {
	if err == nil && f.mode == ModeModify && f.ino.Type.IsDir() {
		return nil, errors.Join(fmt.Errorf("%w: %v", ErrIsDir, f.id), f.Close())
	}
	return f, err
}

// lookInternal is the internal unsynchronized open of §2.3.4 for a
// caller that only looks: it returns the file's committed inode and the
// site that stores it, and leaves nothing behind — no handle, no entry
// in openFiles, no lock-table record. A locally stored file with no
// propagation pending is looked at without informing the CSS, and so is
// a locally stored directory whose pending pull the directory cache
// already holds (lookCached), and a file or directory this site holds a
// read delegation on (leaseLook); otherwise the CSS is asked with the
// fs.open an internal open has always sent, and answers with the inode
// or with "your copy is current", and, at a directory this site stores
// no copy of, with a delegation (lookAtCSS). The inode is the committed
// one, shared and frozen (storage.Inode): read it and pass it on, Clone it before
// writing. Nothing holds it current: a caller that goes on to read pages
// makes a handle (internalHandle), whose reads check each page against
// the version found here.
func (k *Kernel) lookInternal(id storage.FileID) (*storage.Inode, SiteID, error) {
	if ino, ss, ok := k.freeLook(id); ok {
		return ino, ss, nil
	}
	return k.lookAtCSS(id)
}

// lookAtCSS is lookInternal's exchange with the CSS. It records the read
// delegation the CSS grants on a look at a directory this site stores
// no copy of, unless the lease epoch moved meanwhile (recordLease).
func (k *Kernel) lookAtCSS(id storage.FileID) (*storage.Inode, SiteID, error) {
	css, err := k.CSSOf(id.FG)
	if err != nil {
		return nil, 0, err
	}
	epoch := k.grantEpoch()
	r, err := netsim.Call(k.node, css, mOpen, &openReq{ID: id, Mode: ModeInternal, US: k.site, USVV: k.usableVV(id)})
	if err != nil {
		return nil, 0, err
	}
	ino := r.Ino
	if r.SS == k.site {
		// The CSS found this site's copy current (a pending propagation
		// that has in fact landed, say).
		if ino, err = k.container(id.FG).GetInode(id.Inode); err != nil {
			return nil, 0, err
		}
	}
	if r.Delegated {
		k.recordLease(id, r.SS, css, ino, epoch)
	}
	return ino, r.SS, nil
}

// lookLocal is lookInternal's free half: the committed inode of a locally
// stored file with no propagation pending, or nil; it sends nothing.
func (k *Kernel) lookLocal(id storage.FileID) *storage.Inode {
	k.mu.Lock()
	_, pending := k.pendingProp[id]
	k.mu.Unlock()
	if c := k.container(id.FG); c != nil && !pending {
		if ino, err := c.GetInode(id.Inode); err == nil && !ino.Deleted && !ino.Conflict {
			return ino
		}
	}
	return nil
}

// lookCached is the look at a directory this site stores while a pull of
// it is pending, served with no message when the directory cache already
// holds the version the pull is for or a newer one, as after this site's
// own fs.dirop (advance) or its last look (loadDir): the committed inode
// that version was cached under, and the storage site whose copy it is.
// Every commit of a file notifies each site its storage-site list names
// (notifyCommit), so while the cached version names this site, the
// pull's vector is the newest version this site has been told of, as a
// stored copy with no pull pending is (lookLocal), and this look is no
// staler than that one. A retirement (propTask.drop), a cached version
// that no longer names this site, and a deleted or conflicted copy go to
// the CSS. It returns nil when the look is not free.
func (k *Kernel) lookCached(id storage.FileID) (*storage.Inode, SiteID) {
	var pulling vclock.VV
	k.mu.Lock()
	if t := k.pendingProp[id]; t != nil && !t.drop {
		pulling = t.vv
	}
	k.mu.Unlock()
	if pulling == nil {
		return nil, 0
	}
	e := k.dirs.entry(id)
	if e.ino == nil || !e.ino.VV.DominatesOrEqual(pulling) || !containsSite(e.ino.Sites, k.site) {
		return nil, 0
	}
	c := k.container(id.FG)
	if c == nil {
		return nil, 0
	}
	if cur, stores := c.Version(id.Inode); !stores || cur.Deleted || cur.Conflict {
		return nil, 0
	}
	return e.ino, e.ss
}

// usableVV is the version vector of this site's committed copy of id, the
// USVV of an open request, or nil when the site stores none it could serve
// from.
func (k *Kernel) usableVV(id storage.FileID) vclock.VV {
	if c := k.container(id.FG); c != nil {
		if cur, ok := c.Version(id.Inode); ok && !cur.Deleted && !cur.Conflict {
			return cur.VV
		}
	}
	return nil
}

// internalHandle makes the handle of an internal open from what
// lookInternal found, registered for partition cleanup like any other.
func (k *Kernel) internalHandle(id storage.FileID, ino *storage.Inode, ss SiteID) *File {
	f := &File{
		k: k, id: id, mode: ModeInternal, us: k.site, ss: ss,
		ino: ino, size: ino.Size, internal: true,
	}
	k.mu.Lock()
	k.registerOpenLocked(f)
	k.mu.Unlock()
	return f
}

// openID is OpenID for the kernel, which opens a directory for
// modification too; expand marks an open that is a search's look
// (openReq.Expand): a hidden directory comes back as that, inode and
// storage site, with no handle. forSite is the site whose fs.dirop the
// open serves (openReq.For), or NoSite.
func (k *Kernel) openID(id storage.FileID, mode OpenMode, expand bool, forSite SiteID) (*File, *storage.Inode, SiteID, error) {
	if mode == ModeInternal {
		ino, ss, err := k.lookInternal(id)
		if err != nil || expand && ino.Type == storage.TypeHiddenDir {
			return nil, ino, ss, err
		}
		return k.internalHandle(id, ino, ss), nil, 0, nil
	}
	// Delegated fast path: a held read delegation serves a read open
	// with zero wire messages, no CSS round trip.
	if f, look, ss := k.openUnderLease(id, mode, expand); f != nil || look != nil {
		return f, look, ss, nil
	}
	css, err := k.CSSOf(id.FG)
	if err != nil {
		return nil, nil, 0, err
	}
	var wserial uint64
	registered := false
	if mode == ModeModify {
		// The CSS drops this site's delegate record on the file without a
		// revoke (revokeDelegates), and the registration is in flight, so
		// a recall racing the CSS's response does not reclaim the grant
		// (lockvalid.go).
		wserial = k.dropOwnLeases(id)
		defer func() {
			k.endOwnOp(wserial)
			if !registered {
				k.giveBackRecalled(css, id, wserial)
			}
		}()
	}
	epoch := k.grantEpoch()
	r, err := netsim.Call(k.node, css, mOpen, &openReq{ID: id, Mode: mode, US: k.site, Serial: wserial, USVV: k.usableVV(id), Expand: expand, For: forSite})
	if err != nil {
		return nil, nil, 0, err
	}
	ino := r.Ino
	if r.SS == k.site {
		// We are our own storage site, and read our own inode.
		if ino, err = k.container(id.FG).GetInode(id.Inode); err != nil {
			k.releaseCSSLock(css, id, mode, wserial)
			return nil, nil, 0, err
		}
	}
	if expand && ino.Type == storage.TypeHiddenDir {
		// The CSS served it as an internal open, a look that may carry a
		// delegation (declined under a modify open: recordLease).
		if r.Delegated {
			k.recordLease(id, r.SS, css, ino, epoch)
		}
		return nil, ino, r.SS, nil
	}
	if mode == ModeModify {
		// The file is about to change through this US; cached committed
		// pages must not survive into the modify session.
		k.cache.invalidateFile(id)
	}
	f := &File{
		k: k, id: id, mode: mode, us: k.site, ss: r.SS, css: css,
		ino: ino, size: ino.Size, wserial: wserial,
	}
	// Unless the CSS already installed the serving state at this site (it
	// did when this site is also the CSS and selected itself) or the open
	// is a delegated read, which holds no serving state anywhere, set it
	// up now.
	if r.SS == k.site && !r.ServeReady && !r.Delegated {
		if err := k.setupServe(id, mode, k.site, wserial); err != nil {
			k.releaseCSSLock(css, id, mode, wserial)
			return nil, nil, 0, err
		}
	}
	if mode == ModeModify {
		// The in-core inode at the US is this handle's to change; any
		// other handle reads the committed one where it lies.
		f.ino, f.dirty = f.ino.Clone(), make(map[storage.PageNo]bool)
	}
	if r.Delegated && k.recordLease(id, f.ss, css, f.ino, epoch) {
		f.delegated = true
	}
	k.mu.Lock()
	k.registerOpenLocked(f)
	k.mu.Unlock()
	registered = true
	return f, nil, 0, nil
}

// releaseCSSLock tells the CSS directly that this site's registration
// has ended: after a local failure to finish the open (so the lock table
// does not leak a phantom open), or for giveBackRecalled. A release
// naming a registration whose slot has moved on changes nothing.
func (k *Kernel) releaseCSSLock(css SiteID, id storage.FileID, mode OpenMode, serial uint64) {
	req := &ssCloseReq{ID: id, SS: k.site, US: k.site, Mode: mode, Serial: serial}
	netsim.CallAt(k.node, css, mSSClose, k.handleSSClose, req) //locus:vet-allow uncheckedcall best-effort release
}

// handleCreate is the CSS side of file creation (§2.3.7): under the
// parent directory's modify open, check the name, choose the initial
// storage sites, have the birth pack allocate an inode from its private
// pool, register the creating US as the writer, and enter the name. A
// cut after the birth leaves the inode with no name: reclaimable
// garbage, never a name without a file. The birth's note comes back in
// the birth pack's reply, and reaches each site with the entry's in one
// fs.propnotify (outbox), as an unlink's do (handleDirOp).
func (k *Kernel) handleCreate(from SiteID, req *createReq) (*createResp, error) {
	files, err := k.openForUpdate(from, [3]storage.FileID{req.Parent})
	if err != nil {
		return nil, err
	}
	defer closeAll(files)
	var box outbox
	defer k.flush(&box)
	d, err := k.dirOpen(files[0])
	if err != nil {
		return nil, err
	}
	if _, exists := d.Lookup(req.Name); exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, req.Name)
	}
	sites, birth, err := k.chooseStorageSites(req, files[0].ino.Sites)
	if err != nil {
		return nil, err
	}
	r, err := netsim.CallAt(k.node, birth, mSSCreate, k.handleSSCreate,
		&ssCreateReq{FG: req.Parent.FG, Type: req.Type, Owner: req.Owner, Mode: req.Mode, Sites: sites, US: req.US, Serial: req.Serial})
	if err != nil {
		return nil, err
	}
	ino := r.Ino
	id := storage.FileID{FG: req.Parent.FG, Inode: ino.Num}
	// The birth pack applied the birth's note itself; this site is one
	// of the note's destinations, and sends it on to the rest.
	note := commitNote(id, ino, birth, nil)
	if birth != k.site {
		k.applyPropNotify(birth, note)
	}
	k.post(&box, note, nil)
	e := &cssEntry{
		id:           id,
		typ:          req.Type,
		writerUS:     req.US,
		writerSS:     birth,
		writerSerial: req.Serial,
		latestVV:     ino.VV,
		sites:        sites,
	}
	k.mu.Lock()
	k.cssState[id] = e
	k.mu.Unlock()
	dr, err := k.updateDir(dirUpdate{f: files[0], d: d, next: d.Insert(req.Name, ino.Num)}, &box)
	if err != nil {
		// The creating site's registration is live until this reply
		// reaches it (inflightSerials), so the create releases it itself
		// before dropOrphan's modify open meets it.
		netsim.CallAt(k.node, birth, mRevokeServe, k.handleRevokeServe, &revokeServeReq{ID: id, US: req.US, Serial: req.Serial}) //locus:vet-allow uncheckedcall best-effort revoke: an unreachable birth pack is reclaimed by the partition protocol
		k.mu.Lock()
		k.releaseWriterLocked(e, req.US, req.Serial)
		k.mu.Unlock()
		k.dropOrphan(req.US, id, &box)
		return nil, err
	}
	return &createResp{ID: id, SS: birth, Ino: ino, Dir: *dr}, nil
}

// dropOrphan deletes the inode a create made when its name could not be
// entered, once the create has released its writer registration. What
// cannot be deleted, with the birth pack out of reach, say, is left as
// reclaimable garbage. The delete's note goes in the create's box.
func (k *Kernel) dropOrphan(us SiteID, id storage.FileID, box *outbox) {
	if files, err := k.openForUpdate(us, [3]storage.FileID{id}); err == nil {
		k.commitNlink(files[0], -1, nil, box) // error unchecked by design: garbage either way
		closeAll(files)
	}
}

// chooseStorageSites applies the placement algorithm of §2.3.7 to a
// directory stored at parentSites:
// (a) every storage site must store the parent directory;
// (b) the creating process's local site is used first if possible;
// (c) then the parent directory's site order, currently inaccessible
// sites chosen last.
// "The initial replication factor of a file is the minimum of the user
// settable number-of-copies variable and the replication factor of the
// parent directory", the latter when the former is unset.
func (k *Kernel) chooseStorageSites(req *createReq, parentSites []SiteID) (sites []SiteID, birth SiteID, err error) {
	var order []SiteID
	if containsSite(parentSites, req.US) {
		order = append(order, req.US)
	}
	var unreachable []SiteID
	for _, s := range parentSites {
		if s == req.US {
			continue
		}
		if k.inPartition(s) {
			order = append(order, s)
		} else {
			unreachable = append(unreachable, s)
		}
	}
	order = append(order, unreachable...)
	if len(order) == 0 {
		return nil, 0, fmt.Errorf("%w: no candidate storage sites", ErrNoStorageSite)
	}
	n := req.NCopies
	if n <= 0 || n > len(order) {
		n = len(order)
	}
	sites = order[:n]
	for _, s := range sites {
		if k.inPartition(s) {
			return sites, s, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: no accessible birth site", ErrNoStorageSite)
}

// handleSSCreate allocates the inode at the birth pack and commits the
// empty file so it is durable before any data is written.
func (k *Kernel) handleSSCreate(_ SiteID, req *ssCreateReq) (*ssCreateResp, error) {
	c := k.container(req.FG)
	if c == nil {
		return nil, fmt.Errorf("%w: site %d has no pack of filegroup %d", ErrNoStorageSite, k.site, req.FG)
	}
	num, err := c.AllocInode()
	if err != nil {
		return nil, err
	}
	ino := &storage.Inode{
		Num:   num,
		Type:  req.Type,
		Owner: req.Owner,
		Mode:  req.Mode,
		Nlink: 1,
		Sites: req.Sites,
		VV:    c.Floor(num).Bump(k.site),
	}
	if err := c.CommitInode(ino); err != nil {
		return nil, err
	}
	id := storage.FileID{FG: req.FG, Inode: num}
	if err := k.setupServe(id, ModeModify, req.US, req.Serial); err != nil {
		return nil, err
	}
	// The birth's note, which tells the other chosen storage sites to
	// replicate the file even if it is never written (an empty
	// directory, say), is applied here and rides the reply: the CSS
	// sends it on (handleCreate).
	k.applyPropNotify(k.site, commitNote(id, ino, k.site, nil))
	return &ssCreateResp{Ino: ino}, nil
}

// createID creates a new file named name in directory parent with one
// fs.create exchange, giving up this site's delegation on parent as
// dirOp does (dropOwnLeases). The new file's writer registration is in
// flight until its handle is registered: a recall the CSS makes for
// another site's modify open meanwhile finds it live.
func (k *Kernel) createID(parent storage.FileID, name string, typ storage.FileType, cred *Cred, mode uint16) (*File, error) {
	css, err := k.CSSOf(parent.FG)
	if err != nil {
		return nil, err
	}
	wserial := k.dropOwnLeases(parent)
	r, err := netsim.Call(k.node, css, mCreate, &createReq{
		Type: typ, US: k.site, Owner: cred.User, Mode: mode,
		NCopies: cred.NCopies, Parent: parent, Name: name, Serial: wserial,
	})
	if err != nil {
		k.endOwnOp(wserial) // first: a serial in flight is live
		k.giveBackCreated(css, parent, name, wserial)
		return nil, err
	}
	defer k.endOwnOp(wserial)
	k.dirs.advance(parent, &r.Dir, []dirMut{{Name: name, Ino: r.ID.Inode}})
	f := &File{
		k: k, id: r.ID, mode: ModeModify, us: k.site, ss: r.SS, css: css,
		wserial: wserial,
		ino:     r.Ino.Clone(), size: r.Ino.Size, dirty: make(map[storage.PageNo]bool),
	}
	k.mu.Lock()
	k.registerOpenLocked(f)
	k.mu.Unlock()
	return f, nil
}

// giveBackCreated is giveBackRecalled for a create whose reply was lost
// after a recall found its registration live: the new file, which the
// site never learnt, is found by its name, if the create entered it.
func (k *Kernel) giveBackCreated(css SiteID, parent storage.FileID, name string, serial uint64) {
	k.mu.Lock()
	recalled := k.recalledSerials[serial]
	k.mu.Unlock()
	if !recalled {
		return
	}
	if d, _, err := k.readDirByID(parent, nil, 0); err == nil {
		if e, ok := d.Lookup(name); ok {
			k.giveBackRecalled(css, storage.FileID{FG: parent.FG, Inode: e.Inode}, serial)
		}
	}
}
