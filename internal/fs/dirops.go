package fs

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/format"
	"repro/internal/lint/invariant"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Open opens a file by pathname (§2.3.3). Open for modification requires
// the CSS to grant the single-writer lock, and is ErrIsDir on a directory.
// Unless a look at the file is free, the open is the search's look at
// it, and a hidden directory to expand comes back as that (openReq.Expand).
func (k *Kernel) Open(cred *Cred, path string, mode OpenMode) (*File, error) {
	return userHandle(k.open(cred, path, mode))
}

// open is Open for the kernel, whose attrOp opens directories too.
func (k *Kernel) open(cred *Cred, path string, mode OpenMode) (*File, error) {
	expand := false
	_, _, _, r, err := k.resolve(cred, path, &expand)
	if err != nil {
		return nil, err
	}
	f, look, ss, err := k.openID(r.ID, mode, expand, vclock.NoSite)
	if look != nil {
		if _, _, err = k.expandHidden(cred, r.ID, look, ss, path, false, r); err == nil {
			f, _, _, err = k.openID(r.ID, mode, false, vclock.NoSite)
		}
	}
	return f, err
}

// Stat returns a snapshot of a file's inode by pathname, the caller's
// own: a copy of what the search's last look found.
func (k *Kernel) Stat(cred *Cred, path string) (*storage.Inode, error) {
	ino, _, _, r, err := k.resolve(cred, path, nil)
	if err == nil && ino == nil {
		ino, _, err = k.lookInternal(r.ID)
	}
	if err != nil {
		return nil, err
	}
	return ino.Clone(), nil
}

// ReadDir lists the live entries of a directory.
func (k *Kernel) ReadDir(cred *Cred, path string) ([]format.DirEntry, error) {
	ino, ss, _, r, err := k.resolve(cred, path, nil)
	if err != nil {
		return nil, err
	}
	d, _, err := k.readDirByID(r.ID, ino, ss)
	if err != nil {
		return nil, err
	}
	return d.Live(), nil
}

// updateDir applies entry changes to a directory through the standard
// open-for-modify / commit machinery, so directory updates replicate
// and synchronize exactly like file updates. It runs at the CSS for the
// site forSite whose fs.dirop sent them (handleDirOp). Directory entry
// updates are short kernel-internal critical sections (userHandle):
// when another holds the directory's writer lock, the open waits at the
// CSS for its release (§2.3.2: "the kernel ... can sleep on behalf of
// the process"), or until forSite leaves the partition. Every update
// commits through here, so the CSS's cached snapshot is current as a
// rule and the directory is neither read nor decoded. An update whose
// commit fails lands nowhere: its close commits nothing.
//
// The write is the pages the change touched (writeDirPages), so the
// commit's notification lists them and the other storage sites pull
// only them (§2.3.6). It returns the versions the directory went
// between.
func (k *Kernel) updateDir(id storage.FileID, forSite SiteID, muts []dirMut) (*dirOpResp, error) {
	f, _, _, err := k.openID(id, ModeModify, false, forSite)
	if err != nil {
		return nil, err
	}
	defer f.Close() //locus:vet-allow uncheckedcall commit already happened or failed below
	prev := f.ino.VV
	d, err := k.dirOpen(f)
	if err != nil {
		return nil, err
	}
	next, err := applyMuts(d, muts)
	if err != nil {
		f.Abort() //locus:vet-allow uncheckedcall best-effort rollback
		return nil, err
	}
	k.assertDirBytes(id, f.ss, prev, d)
	if err := writeDirPages(f, d, next); err != nil {
		// The handle is dirty with some of the pages, or a cut file;
		// without the abort the deferred Close would commit it ("closing
		// a file commits it").
		f.Abort() //locus:vet-allow uncheckedcall best-effort rollback
		return nil, err
	}
	cr, err := f.commitOrAbort(false)
	if err != nil {
		clear(f.dirty) // the storage site discards the update at close
		return nil, err
	}
	// Commit assigned the new content its version vector; hand the
	// snapshot to the cache, with the page table the commit installed, so
	// the next update and pathname search do not re-read and re-parse
	// what we just wrote, and a later re-read reads only what changes.
	r := &dirOpResp{Prev: prev, VV: cr.VV, SS: f.ss, Pages: cr.Pages}
	k.dirs.put(id, dirCacheEntry{vv: r.VV, dir: next, ss: r.SS, pages: r.Pages})
	return r, nil
}

// dirOpen is the directory f has open for modification, at its
// committed version: the cached snapshot, as a rule, or the whole
// directory read through f and decoded against whatever snapshot the
// cache holds.
func (k *Kernel) dirOpen(f *File) (*format.DirSnapshot, error) {
	e := k.dirs.entry(f.id)
	if e.dir != nil && e.vv.Equal(f.ino.VV) {
		return e.dir, nil
	}
	raw, err := f.ReadAll()
	if err != nil {
		return nil, err
	}
	return format.DecodeDirSnapshot(e.dir, raw)
}

// writeDirPages writes through f, open for modification on the
// directory d encodes, the pages of next that are not d's
// (format.DirSnapshot.PagesChanged): each as a whole page, with no read
// (§2.3.5), every other page left as committed. Only when the directory
// loses a page, which a re-layout that packs it tighter can make it do,
// is it first truncated to its new size.
func writeDirPages(f *File, d, next *format.DirSnapshot) error {
	size := int64(next.Size())
	if pagesOf(size) < pagesOf(f.size) {
		if err := f.Truncate(size); err != nil {
			return err
		}
	}
	page := storage.GetPageBuf()
	defer storage.PutPageBuf(page)
	for _, pn := range next.PagesChanged(d) {
		if err := f.writePage(storage.PageNo(pn), next.AppendPage(page[:0], pn), size); err != nil {
			return err
		}
	}
	return nil
}

// pagesOf is the number of pages a file of size bytes takes.
func pagesOf(size int64) int64 { return (size + storage.PageSize - 1) / storage.PageSize }

// assertDirBytes asserts, under the invariant layer, that d encodes to
// the committed bytes of version vv of directory id at storage site ss:
// updateDir patches the snapshot it edits page by page, and a layout
// that differed from the committed one would write pages that do not
// fit the ones left as they are; loadDir builds a snapshot from the
// pages it did not read, and a page number that named other bytes would
// make it another directory. Only a local storage site is read, and for
// nothing, so that the check moves no counter, and only while vv is the
// version committed there.
func (k *Kernel) assertDirBytes(id storage.FileID, ss SiteID, vv vclock.VV, d *format.DirSnapshot) {
	if !invariant.Enabled || ss != k.site {
		return
	}
	c := k.container(id.FG)
	if c == nil {
		return
	}
	before, _ := c.Version(id.Inode)
	raw, err := c.PeekFile(nil, id.Inode)
	after, _ := c.Version(id.Inode)
	if err != nil || !before.VV.Equal(vv) || !after.VV.Equal(vv) {
		return
	}
	if len(raw) == 0 {
		raw = format.EncodeDir(&format.Directory{}) // a new directory has no pages
	}
	invariant.Assertf(bytes.Equal(d.AppendEncoded(nil), raw),
		"fs: the snapshot of directory %v at %v does not encode to its committed %d bytes", id, vv, len(raw))
}

// handleDirOp is the CSS side of fs.dirop.
func (k *Kernel) handleDirOp(from SiteID, req *dirOpReq) (*dirOpResp, error) {
	return k.updateDir(req.Dir, from, req.Muts)
}

// dirOp changes entries of directory dir: one fs.dirop exchange with
// the filegroup's CSS, a procedure call when this site is the CSS. The
// update is re-applied here to the cached snapshot it was made from, if
// that is the one cached, so that this site's next search of the
// directory reads nothing (the CSS's own cache already holds the result).
func (k *Kernel) dirOp(dir storage.FileID, muts ...dirMut) error {
	css, err := k.CSSOf(dir.FG)
	if err != nil {
		return err
	}
	r, err := netsim.CallAt(k.node, css, mDirOp, k.handleDirOp, &dirOpReq{Dir: dir, Muts: muts})
	if err != nil {
		return err
	}
	k.dirs.advance(dir, r, muts)
	return nil
}

// mayHaveApplied reports whether a dirOp that failed with err may have
// changed the directory all the same: the CSS ran it and the reply was
// lost with the circuit (the CSS crashed before it replied, say). The
// operation then keeps what it did before, for the entry may name it; a
// rollback runs on any other failure.
func mayHaveApplied(err error) bool {
	return errors.Is(err, netsim.ErrCircuitClosed)
}

// dirInsert adds a live entry, failing if the name exists.
func (k *Kernel) dirInsert(dir storage.FileID, name string, ino storage.InodeNum) error {
	return k.dirOp(dir, dirMut{Name: name, Ino: ino})
}

// dirRemove tombstones an entry, recording the file's delete-time
// version vector.
func (k *Kernel) dirRemove(dir storage.FileID, name string, delVV vclock.VV) error {
	return k.dirOp(dir, dirMut{Name: name, Remove: true, DelVV: delVV})
}

// applyMuts maps a directory snapshot to the one with muts applied, in
// order; d is left as it was.
func applyMuts(d *format.DirSnapshot, muts []dirMut) (*format.DirSnapshot, error) {
	for _, m := range muts {
		if m.Remove {
			var ok bool
			if d, ok = d.Remove(m.Name, m.DelVV); !ok {
				return nil, fmt.Errorf("%w: %q", ErrNotFound, m.Name)
			}
			continue
		}
		if _, exists := d.Lookup(m.Name); exists {
			return nil, fmt.Errorf("%w: %q", ErrExists, m.Name)
		}
		d = d.Insert(m.Name, m.Ino)
	}
	return d, nil
}

// effectiveNCopies applies §2.3.7: "the initial replication factor of a
// file is the minimum of the user settable number-of-copies variable
// and the replication factor of the parent directory".
func effectiveNCopies(cred *Cred, parentSites []SiteID) int {
	n := cred.NCopies
	if n <= 0 || n > len(parentSites) {
		n = len(parentSites)
	}
	return n
}

// Create creates a regular (or typed) file at path and returns it open
// for modification. The caller must Close (or Commit) it. A directory
// type is ErrIsDir: Mkdir and MkHidden make directories.
func (k *Kernel) Create(cred *Cred, path string, typ storage.FileType, mode uint16) (*File, error) {
	if typ.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	return k.create(cred, path, typ, mode)
}

// create is Create for the kernel, which makes directories too.
func (k *Kernel) create(cred *Cred, path string, typ storage.FileType, mode uint16) (*File, error) {
	ino, ss, parent, name, err := k.resolveParent(cred, path)
	if err != nil {
		return nil, err
	}
	d, ino, err := k.readDirByID(parent, ino, ss)
	if err != nil {
		return nil, err
	}
	if _, exists := d.Lookup(name); exists {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	f, err := k.createID(parent.FG, typ, cred, mode, effectiveNCopies(cred, ino.Sites), ino.Sites)
	if err != nil {
		return nil, err
	}
	if err := k.dirInsert(parent, name, f.id.Inode); err != nil {
		// Roll the create back: mark the orphan inode deleted.
		if !mayHaveApplied(err) {
			f.setAttr(&setAttrReq{ID: f.id, Nlink: 0, Mode: -1, SetDeleted: true})
			f.Commit() //locus:vet-allow uncheckedcall rollback
		}
		f.Close() //locus:vet-allow uncheckedcall rollback
		return nil, err
	}
	return f, nil
}

// Mkdir creates an ordinary directory.
func (k *Kernel) Mkdir(cred *Cred, path string, mode uint16) error {
	return closeMade(k.create(cred, path, storage.TypeDirectory, mode))
}

// MkHidden creates a hidden directory for context-sensitive naming
// (§2.4.1). Populate it with per-context entries (e.g. "vax",
// "pdp11") via Create on escaped paths: "/bin/who@@/vax".
func (k *Kernel) MkHidden(cred *Cred, path string, mode uint16) error {
	return closeMade(k.create(cred, path, storage.TypeHiddenDir, mode))
}

// Mkfifo creates a named pipe in the catalog; the process layer
// provides its cross-network semantics (§2.4.2).
func (k *Kernel) Mkfifo(cred *Cred, path string, mode uint16) error {
	return closeMade(k.create(cred, path, storage.TypePipe, mode))
}

// closeMade closes the handle a create returned, for a call that only
// makes the file.
func closeMade(f *File, err error) error {
	if err != nil {
		return err
	}
	return f.Close()
}

// Annotation keys for device special files.
const (
	// DevSiteAnnotation records the site hosting the device.
	DevSiteAnnotation = "dev.site"
	// DevNameAnnotation records the driver name at the hosting site.
	DevNameAnnotation = "dev.name"
)

// Mknod creates a device special file bound to a driver at a hosting
// site. "LOCUS provides for transparent use of remote devices" —
// §2.4.2: the catalog names the device; the process layer routes I/O
// to the hosting site.
func (k *Kernel) Mknod(cred *Cred, path string, host SiteID, devName string, mode uint16) error {
	f, err := k.Create(cred, path, storage.TypeDevice, mode)
	if err != nil {
		return err
	}
	err = f.setAttr(&setAttrReq{
		ID: f.id, Nlink: -1, Mode: -1,
		Annotations: map[string]string{
			DevSiteAnnotation: fmt.Sprintf("%d", host),
			DevNameAnnotation: devName,
		},
	})
	if err != nil {
		f.Close() //locus:vet-allow uncheckedcall abandoning
		return err
	}
	return f.Close()
}

// setAttr ships a descriptive inode change to the SS (one-way, like the
// write protocol) and records it in the local in-core image.
func (f *File) setAttr(req *setAttrReq) error {
	k := f.k
	if err := netsim.CastAt(k.node, f.ss, mSetAttr, k.handleSetAttr, req); err != nil {
		return err
	}
	applyAttr(f.ino, req)
	f.size = f.ino.Size // a delete empties the file
	f.dirty[0] = true
	return nil
}

func applyAttr(ino *storage.Inode, req *setAttrReq) {
	if req.Nlink >= 0 {
		ino.Nlink = req.Nlink
	}
	if req.Mode >= 0 {
		ino.Mode = uint16(req.Mode)
	}
	if req.Owner != "" {
		ino.Owner = req.Owner
	}
	if req.SetDeleted {
		ino.Deleted = true
		ino.Pages = nil
		ino.Size = 0
	}
	if req.Sites != nil {
		ino.Sites = append([]SiteID(nil), req.Sites...)
	}
	if req.Annotations != nil {
		if ino.Annotations == nil {
			ino.Annotations = make(map[string]string, len(req.Annotations))
		}
		for k, v := range req.Annotations {
			ino.Annotations[k] = v
		}
	}
}

func (k *Kernel) handleSetAttr(from SiteID, req *setAttrReq) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	sv := k.ssState[req.ID]
	if sv == nil || sv.writerUS != from || sv.incore == nil {
		return nil // modify open gone; drop like a late write
	}
	if req.SetDeleted {
		// Data pages are released at commit; mark for whole-state prop.
		sv.truncated = true
	}
	applyAttr(sv.incore, req)
	sv.dirty[0] = true
	return nil
}

// Chmod changes permission bits — an inode-only modification
// propagated without data pages (§2.3.6).
func (k *Kernel) Chmod(cred *Cred, path string, mode uint16) error {
	return k.attrOp(cred, path, &setAttrReq{Nlink: -1, Mode: int32(mode)})
}

// Chown changes the file owner.
func (k *Kernel) Chown(cred *Cred, path string, owner string) error {
	return k.attrOp(cred, path, &setAttrReq{Nlink: -1, Mode: -1, Owner: owner})
}

// SetReplication changes the file's storage-site list. New sites pull
// a copy at the next propagation; dropped sites stop receiving updates
// ("a move of an object is equivalent to an add followed by a delete of
// an object copy" — §2.2.1).
func (k *Kernel) SetReplication(cred *Cred, path string, sites []SiteID) error {
	if len(sites) == 0 {
		return fmt.Errorf("%w: empty site list", ErrBadName)
	}
	return k.attrOp(cred, path, &setAttrReq{Nlink: -1, Mode: -1, Sites: sites})
}

func (k *Kernel) attrOp(cred *Cred, path string, req *setAttrReq) error {
	f, err := k.open(cred, path, ModeModify)
	if err != nil {
		return err
	}
	defer f.Close() //locus:vet-allow uncheckedcall commit below is the real barrier
	req.ID = f.id
	if err := f.setAttr(req); err != nil {
		return err
	}
	return f.Commit()
}

// Unlink removes a name. When the link count drops to zero the file
// itself is deleted: the US "marks the inode and does a commit" and
// the other storage sites release their pages as the delete propagates
// (§2.3.7). Directories must be empty.
func (k *Kernel) Unlink(cred *Cred, path string) error {
	ino, ss, _, r, err := k.resolve(cred, path, nil)
	if err != nil {
		return err
	}
	if r.Parent == (storage.FileID{}) {
		return fmt.Errorf("%w: cannot unlink a filegroup root", ErrBadName)
	}
	if r.Type.IsDir() {
		d, _, err := k.readDirByID(r.ID, ino, ss)
		if err != nil {
			return err
		}
		if d.HasLive() {
			return fmt.Errorf("%w: %s", ErrNotEmpty, path)
		}
	}

	f, _, _, err := k.openID(r.ID, ModeModify, false, vclock.NoSite)
	if err != nil {
		return err
	}
	nlink := f.ino.Nlink
	var delVV vclock.VV
	if nlink > 1 {
		err = f.setAttr(&setAttrReq{ID: f.id, Nlink: nlink - 1, Mode: -1})
	} else {
		err = f.setAttr(&setAttrReq{ID: f.id, Nlink: 0, Mode: -1, SetDeleted: true})
	}
	if err != nil {
		f.Close() //locus:vet-allow uncheckedcall nothing more to do
		return err
	}
	if err := f.Commit(); err != nil {
		f.Close() //locus:vet-allow uncheckedcall see above
		return err
	}
	delVV = f.ino.VV
	if err := f.Close(); err != nil {
		return err
	}
	return k.dirRemove(r.Parent, r.Name, delVV)
}

// Link adds a hard link newpath referring to oldpath's file. Links
// cannot cross filegroup boundaries. newpath's parent is not searched
// when it is spelled as oldpath's (newParent, as Rename does).
func (k *Kernel) Link(cred *Cred, oldpath, newpath string) error {
	_, _, dir, r, err := k.resolve(cred, oldpath, nil)
	if err != nil {
		return err
	}
	parent, name, err := k.newParent(cred, oldpath, newpath, dir)
	if err != nil {
		return err
	}
	if parent.FG != r.ID.FG {
		return fmt.Errorf("%w: %s -> %s", ErrCrossFilegroup, newpath, oldpath)
	}
	f, _, _, err := k.openID(r.ID, ModeModify, false, vclock.NoSite)
	if err != nil {
		return err
	}
	if err := f.setAttr(&setAttrReq{ID: f.id, Nlink: f.ino.Nlink + 1, Mode: -1}); err != nil {
		f.Close() //locus:vet-allow uncheckedcall abandoning
		return err
	}
	if err := f.Commit(); err != nil {
		f.Close() //locus:vet-allow uncheckedcall abandoning
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := k.dirInsert(parent, name, r.ID.Inode); err != nil {
		if mayHaveApplied(err) {
			return err
		}
		// Roll back the link count.
		if g, _, _, e2 := k.openID(r.ID, ModeModify, false, vclock.NoSite); e2 == nil {
			g.setAttr(&setAttrReq{ID: g.id, Nlink: g.ino.Nlink - 1, Mode: -1}) // error unchecked by design: rollback
			g.Commit()                                                         //locus:vet-allow uncheckedcall rollback
			g.Close()                                                          //locus:vet-allow uncheckedcall rollback
		}
		return err
	}
	return nil
}

// newParent returns newpath's parent directory and last component, for
// Link and Rename of oldpath, which the search found in directory dir.
// The parent is not searched when it is spelled as oldpath's: it is then
// dir, which is not the old entry's directory when oldpath's last
// component was a hidden directory the search expanded.
func (k *Kernel) newParent(cred *Cred, oldpath, newpath string, dir storage.FileID) (storage.FileID, string, error) {
	newDir, name, err := splitParent(newpath)
	if err != nil {
		return storage.FileID{}, "", err
	}
	if oldDir, _, err := splitParent(oldpath); err == nil && oldDir == newDir {
		return dir, name, nil
	}
	_, _, parent, name, err := k.resolveParent(cred, newpath)
	return parent, name, err
}

// Rename moves a name within one filegroup; the file's inode is
// untouched. Within one directory it is one directory update, so one
// commit (§2.3.6) inserts the new entry and tombstones the old: no cut
// leaves both names or neither. Across directories the new entry is
// inserted first and the old removed after, and a failed removal rolls
// the insert back.
//
// newpath's parent is not searched when it is spelled as oldpath's
// (newParent).
func (k *Kernel) Rename(cred *Cred, oldpath, newpath string) error {
	ino, _, dir, r, err := k.resolve(cred, oldpath, nil)
	if err != nil {
		return err
	}
	newParent, newName, err := k.newParent(cred, oldpath, newpath, dir)
	if err != nil {
		return err
	}
	if newParent.FG != r.ID.FG {
		return fmt.Errorf("%w: rename %s -> %s", ErrCrossFilegroup, oldpath, newpath)
	}
	// Removing the old name is not a file delete: no delete VV applies;
	// the tombstone carries the file's current vector, the search's look
	// at it, so it survives merges. Only a conflicted file is looked at
	// again (and met as a conflict).
	vv := vclock.New()
	if ino != nil {
		vv = ino.VV
	} else if ino, _, err := k.lookInternal(r.ID); err == nil {
		vv = ino.VV
	}
	if newParent == r.Parent {
		return k.dirOp(newParent, dirMut{Name: newName, Ino: r.ID.Inode}, dirMut{Name: r.Name, Remove: true, DelVV: vv})
	}
	if err := k.dirInsert(newParent, newName, r.ID.Inode); err != nil {
		return err
	}
	if err := k.dirRemove(r.Parent, r.Name, vv); err != nil {
		// Roll back the insert.
		if !mayHaveApplied(err) {
			k.dirRemove(newParent, newName, vv) // error unchecked by design: rollback
		}
		return err
	}
	return nil
}
