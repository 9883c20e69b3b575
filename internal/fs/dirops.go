package fs

import (
	"bytes"
	"fmt"
	"slices"

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
	s := search{cred: cred, open: true}
	_, _, _, r, err := k.walk(&s, path)
	if err != nil {
		return nil, err
	}
	f, look, ss, err := k.openID(r.ID, mode, s.expand, vclock.NoSite)
	if err != nil || look == nil {
		return f, err
	}
	if _, _, err = k.expandHidden(&s, r.ID, look, ss, path, false, r); err != nil {
		return nil, err
	}
	f, _, _, err = k.openID(r.ID, mode, false, vclock.NoSite)
	return f, err
}

// Stat returns a snapshot of a file's inode by pathname, the caller's
// own: a copy of what the search's last look found.
func (k *Kernel) Stat(cred *Cred, path string) (*storage.Inode, error) {
	ino, _, _, r, err := k.resolve(cred, path)
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
	ino, ss, _, r, err := k.resolve(cred, path)
	if err != nil {
		return nil, err
	}
	d, _, err := k.readDirByID(r.ID, ino, ss)
	if err != nil {
		return nil, err
	}
	return d.Live(), nil
}

// openForUpdate opens the files ids name for modification at the CSS,
// for the site forSite whose namespace operation they serve, and returns
// them in the order of ids, nil for a zero id. It opens them in file
// order, so that two operations never wait for each other's directories:
// directory entry updates are short kernel-internal critical sections
// (userHandle), and when another holds a directory's writer lock, the
// open waits at the CSS for its release (§2.3.2: "the kernel ... can
// sleep on behalf of the process"), or until forSite leaves the
// partition. A file's open is refused at once.
func (k *Kernel) openForUpdate(forSite SiteID, ids [3]storage.FileID) (files [3]*File, err error) {
	order := make([]int, 0, len(ids))
	for i, id := range ids {
		if id != (storage.FileID{}) {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return ids[a].Compare(ids[b]) })
	for _, i := range order {
		if files[i], _, _, err = k.openID(ids[i], ModeModify, false, forSite); err != nil {
			closeAll(files)
			return [3]*File{}, err
		}
	}
	return files, nil
}

// closeAll closes what openForUpdate opened. Every change was committed,
// or discarded when its commit failed, so a close commits nothing.
func closeAll(files [3]*File) {
	for _, f := range files {
		if f != nil {
			f.Close() //locus:vet-allow uncheckedcall commit already happened or failed
		}
	}
}

// dirUpdate is one directory's update at the CSS: the directory open
// for modification, its snapshot at the committed version, and the
// snapshot the update makes of it.
type dirUpdate struct {
	f       *File
	d, next *format.DirSnapshot
}

// dirChange applies muts to the snapshot of the directory f has open for
// modification, checking them before anything is written.
func (k *Kernel) dirChange(f *File, muts []dirMut) (dirUpdate, error) {
	d, err := k.dirOpen(f)
	if err != nil {
		return dirUpdate{}, err
	}
	next, err := applyMuts(d, muts)
	return dirUpdate{f: f, d: d, next: next}, err
}

// updateDir writes and commits u through the standard open-for-modify /
// commit machinery, so directory updates replicate and synchronize
// exactly like file updates. The write is the pages the change touched
// (writeDirPages), so the commit's notification lists them and the other
// storage sites pull only them (§2.3.6). Every update commits through
// here, at the CSS, so the CSS's cached snapshot is current as a rule
// and the directory is neither read nor decoded. An update whose commit
// fails lands nowhere: its close commits nothing. The commit's note
// goes in the operation's box, or out at once with none. It returns the
// versions the directory went between.
func (k *Kernel) updateDir(u dirUpdate, box *outbox) (*dirOpResp, error) {
	f, prev := u.f, u.f.ino.VV
	k.assertDirBytes(f.id, f.ss, prev, u.d)
	if err := writeDirPages(f, u.d, u.next); err != nil {
		// The handle is dirty with some of the pages, or a cut file;
		// without the abort the close would commit it ("closing a file
		// commits it").
		f.Abort() //locus:vet-allow uncheckedcall best-effort rollback
		return nil, err
	}
	cr, err := f.commitOrAbort(false, box)
	if err != nil {
		clear(f.dirty) // the storage site discards the update at close
		return nil, err
	}
	// Commit assigned the new content its version vector; hand the
	// snapshot to the cache under the inode the commit installed, so the
	// next update and pathname search do not re-read and re-parse what we
	// just wrote, and a later re-read reads only what changes.
	r := &dirOpResp{Prev: prev, Ino: cr.Ino, SS: f.ss}
	k.dirs.put(f.id, dirCacheEntry{ino: r.Ino, dir: u.next, ss: r.SS})
	return r, nil
}

// dirOpen is the directory f has open for modification, at its
// committed version: the cached snapshot, as a rule, or the one made of
// it by reading through f only the pages it lacks (rereadDir), none after
// a commit that changed only the inode (attrOp's).
func (k *Kernel) dirOpen(f *File) (*format.DirSnapshot, error) {
	e := k.dirs.entry(f.id)
	if e.dir != nil && e.ino.VV.Equal(f.ino.VV) {
		return e.dir, nil
	}
	return k.rereadDir(e, f.id, f.ino, f.ss, f)
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

// handleDirOp is the CSS side of fs.dirop: it opens every file the
// operation changes (openForUpdate), checks every change, and then
// commits each file at its own storage site in the order of the
// soft-updates rule, so that a cut between two commits leaves
// reclaimable garbage and never a wrong name: a link raises the count
// before it adds the name, an unlink removes the name before it lowers
// the count, its tombstone recording the version that change commits
// (§5.5's delete/modify undo compares against it), and a rename across
// directories removes the old name before it enters the new one. An
// unlink's notes of the commits it makes itself reach each site in one
// fs.propnotify, sent once the last is made, before it replies, on
// every way out (outbox). A link's and a rename's go out as each commit
// is made: a crash between a link's or a cross-directory rename's two
// commits then falls at an exchange, where the cut tables reach it,
// until a storage-level crash point can (ROADMAP items 1 and 9).
func (k *Kernel) handleDirOp(from SiteID, req *dirOpReq) (*dirOpResp, error) {
	var target storage.FileID
	if req.Nlink != 0 {
		target = storage.FileID{FG: req.Dir.FG, Inode: req.Ino}
	}
	files, err := k.openForUpdate(from, [3]storage.FileID{req.Dir, req.To, target})
	if err != nil {
		return nil, err
	}
	defer closeAll(files)
	var unlinkBox outbox
	defer k.flush(&unlinkBox)
	var box *outbox
	if req.Nlink < 0 {
		box = &unlinkBox
	}
	f, muts := files[2], req.Muts
	var delVV vclock.VV
	if req.Nlink < 0 {
		if f.ino.Type.IsDir() {
			d, err := k.dirOpen(f)
			if err != nil {
				return nil, err
			}
			if d.HasLive() {
				return nil, fmt.Errorf("%w: %v", ErrNotEmpty, target)
			}
		}
		// The storage site commits the change by bumping its own entry of
		// the version f opened (handleCommit).
		delVV = f.ino.VV.Bump(f.ss)
		muts = slices.Clone(muts)
		setDelVV(muts, delVV)
	}
	dir, err := k.dirChange(files[0], muts)
	if err != nil {
		return nil, err
	}
	var to dirUpdate
	if files[1] != nil {
		if to, err = k.dirChange(files[1], req.ToMuts); err != nil {
			return nil, err
		}
	}
	if req.Nlink > 0 {
		if err := k.commitNlink(f, 1, nil, box); err != nil {
			return nil, err
		}
	}
	r, err := k.updateDir(dir, box)
	if err != nil {
		return nil, err
	}
	if files[1] != nil {
		if r.To, err = k.updateDir(to, box); err != nil {
			return nil, err
		}
	}
	if req.Nlink < 0 {
		r.DelVV = delVV
		return r, k.commitNlink(f, -1, delVV, box)
	}
	return r, nil
}

// commitNlink commits f's link count changed by delta, which deletes the
// file when no link is left: the US "marks the inode and does a commit"
// of §2.3.7, made by the CSS on the using site's behalf. delVV is what
// an unlink's tombstone recorded as the version this commit makes. The
// commit's note goes in the operation's box, or out at once with none.
func (k *Kernel) commitNlink(f *File, delta int, delVV vclock.VV, box *outbox) error {
	nlink, before := f.ino.Nlink+delta, k.peekCommitted(f)
	if err := f.setAttr(&setAttrReq{ID: f.id, Nlink: max(nlink, 0), Mode: -1, SetDeleted: nlink <= 0}); err != nil {
		return err
	}
	cr, err := f.commitOrAbort(false, box)
	if err != nil {
		clear(f.dirty) // the storage site discards the change at close
		return err
	}
	invariant.Assertf(delVV == nil || cr.Ino.VV.Equal(delVV), "fs: the tombstone of %v records %v, the change committed %v", f.id, delVV, cr.Ino.VV)
	if after := k.peekCommitted(f); before != nil && after != nil && delta > 0 {
		invariant.Assertf(after.Nlink == before.Nlink+delta, "fs: a link of %v committed %d links over %d", f.id, after.Nlink, before.Nlink)
	}
	return nil
}

// peekCommitted is, under the invariant layer, the committed inode of
// f's file when its storage site is this site, read for nothing; nil
// otherwise.
func (k *Kernel) peekCommitted(f *File) *storage.Inode {
	if !invariant.Enabled || f.ss != k.site {
		return nil
	}
	ino, err := k.container(f.id.FG).GetInode(f.id.Inode)
	if err != nil {
		return nil
	}
	return ino
}

// dirOp sends one namespace operation to the filegroup's CSS: one fs.dirop
// exchange, a procedure call when this site is the CSS. Each entry change
// is re-applied here to the cached snapshot it was made from, if that is
// the one cached, so that this site's next search of the directory reads
// nothing (the CSS's own cache already holds the result). This site's
// read delegations on the files the operation changes are given up
// before the request leaves, since the CSS drops its records of them
// without a revoke (dropOwnLeases).
func (k *Kernel) dirOp(req *dirOpReq) error {
	css, err := k.CSSOf(req.Dir.FG)
	if err != nil {
		return err
	}
	target := storage.FileID{FG: req.Dir.FG, Inode: req.Ino}
	defer k.endOwnOp(k.dropOwnLeases(req.Dir, req.To, target))
	r, err := netsim.CallAt(k.node, css, mDirOp, k.handleDirOp, req)
	if err != nil {
		return err
	}
	setDelVV(req.Muts, r.DelVV)
	k.dirs.advance(req.Dir, r, req.Muts)
	if r.To != nil {
		k.dirs.advance(req.To, r.To, req.ToMuts)
	}
	return nil
}

// setDelVV makes every tombstone of muts record vv, unless vv is nil.
func setDelVV(muts []dirMut, vv vclock.VV) {
	for i := range muts {
		if muts[i].Remove && vv != nil {
			muts[i].DelVV = vv
		}
	}
}

// applyMuts maps a directory snapshot to the one with muts applied, in
// order; d is left as it was. A removal that names an inode fails unless
// the name names it.
func applyMuts(d *format.DirSnapshot, muts []dirMut) (*format.DirSnapshot, error) {
	for _, m := range muts {
		if m.Remove {
			if e, ok := d.Lookup(m.Name); ok && m.Ino != 0 && e.Inode != m.Ino {
				return nil, fmt.Errorf("%w: %q no longer names inode %d", ErrNotFound, m.Name, m.Ino)
			}
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

// Create creates a regular (or typed) file at path and returns it open
// for modification. The caller must Close (or Commit) it. A directory
// type is ErrIsDir: Mkdir and MkHidden make directories.
func (k *Kernel) Create(cred *Cred, path string, typ storage.FileType, mode uint16) (*File, error) {
	if typ.IsDir() {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	return k.create(cred, path, typ, mode)
}

// create is Create for the kernel, which makes directories too. The CSS
// checks the name and places the file (handleCreate).
func (k *Kernel) create(cred *Cred, path string, typ storage.FileType, mode uint16) (*File, error) {
	_, _, parent, name, err := k.resolveParent(cred, path)
	if err != nil {
		return nil, err
	}
	return k.createID(parent, name, typ, cred, mode)
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
	if sv == nil || sv.writerUS != from {
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
// itself is deleted: §2.3.7's US "marks the inode and does a commit",
// which the CSS now does on the using site's behalf in the same fs.dirop
// that removes the name (handleDirOp), and the other storage sites
// release their pages as the delete propagates. Directories must be
// empty, which the CSS checks under the directory's modify open.
func (k *Kernel) Unlink(cred *Cred, path string) error {
	_, _, _, r, err := k.resolve(cred, path)
	if err != nil {
		return err
	}
	if r.Parent == (storage.FileID{}) {
		return fmt.Errorf("%w: cannot unlink a filegroup root", ErrBadName)
	}
	return k.dirOp(&dirOpReq{
		Dir: r.Parent, Muts: []dirMut{{Name: r.Name, Ino: r.ID.Inode, Remove: true}},
		Ino: r.ID.Inode, Nlink: -1,
	})
}

// Link adds a hard link newpath referring to oldpath's file: one fs.dirop
// that raises the link count and enters the name (handleDirOp). Links
// cannot cross filegroup boundaries, and a directory cannot be linked,
// as in Unix: a link into itself would have its update wait for its own
// writer slot. newpath's parent is not searched when it is spelled as
// oldpath's (newParent, as Rename does).
func (k *Kernel) Link(cred *Cred, oldpath, newpath string) error {
	_, _, dir, r, err := k.resolve(cred, oldpath)
	if err != nil {
		return err
	}
	if r.Type.IsDir() {
		return fmt.Errorf("%w: %s", ErrIsDir, oldpath)
	}
	parent, name, err := k.newParent(cred, oldpath, newpath, dir)
	if err != nil {
		return err
	}
	if parent.FG != r.ID.FG {
		return fmt.Errorf("%w: %s -> %s", ErrCrossFilegroup, newpath, oldpath)
	}
	return k.dirOp(&dirOpReq{
		Dir: parent, Muts: []dirMut{{Name: name, Ino: r.ID.Inode}},
		Ino: r.ID.Inode, Nlink: 1,
	})
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
// untouched. It is one fs.dirop. Within one directory it is one
// directory update, so one commit (§2.3.6) inserts the new entry and
// tombstones the old: no cut leaves both names or neither. Across
// directories the CSS removes the old entry and then inserts the new
// one (handleDirOp).
//
// newpath's parent is not searched when it is spelled as oldpath's
// (newParent).
func (k *Kernel) Rename(cred *Cred, oldpath, newpath string) error {
	ino, _, dir, r, err := k.resolve(cred, oldpath)
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
	insert, remove := dirMut{Name: newName, Ino: r.ID.Inode}, dirMut{Name: r.Name, Remove: true, DelVV: vv}
	if newParent == r.Parent {
		return k.dirOp(&dirOpReq{Dir: newParent, Muts: []dirMut{insert, remove}})
	}
	return k.dirOp(&dirOpReq{Dir: r.Parent, Muts: []dirMut{remove}, To: newParent, ToMuts: []dirMut{insert}})
}
