package fs

import (
	"fmt"

	"repro/internal/format"
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
	f, look, ss, err := k.openID(r.ID, mode, expand)
	if look != nil {
		if _, _, err = k.expandHidden(cred, r.ID, look, ss, path, false, r); err == nil {
			f, _, _, err = k.openID(r.ID, mode, false)
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

// updateDir applies a mutation to a directory through the standard
// open-for-modify / commit machinery, so directory updates replicate
// and synchronize exactly like file updates. Directory entry updates
// are short kernel-internal critical sections, the only modify opens of
// a directory (userHandle): when another holds the directory's writer
// lock, the open waits at the CSS for its release (§2.3.2: "the kernel
// ... can sleep on behalf of the process"). An update whose commit
// fails lands nowhere: its close commits nothing.
//
// mutate maps the directory's snapshot at the version just opened to
// the one to commit. The write is the whole serialization, assembled
// from the snapshot's chunk encodings: only the chunk mutate touched
// was encoded for it.
func (k *Kernel) updateDir(id storage.FileID, mutate func(*format.DirSnapshot) (*format.DirSnapshot, error)) error {
	f, _, _, err := k.openID(id, ModeModify, false)
	if err != nil {
		return err
	}
	defer f.Close() //locus:vet-allow uncheckedcall commit already happened or failed below
	d, err := k.dirs.load(id, f.ino.VV, f.readAllInto)
	if err != nil {
		return err
	}
	if d, err = mutate(d); err != nil {
		f.Abort() //locus:vet-allow uncheckedcall best-effort rollback
		return err
	}
	buf := dirEncBufs.Get().(*[]byte)
	*buf = d.AppendEncoded((*buf)[:0])
	err = f.WriteAll(*buf)
	dirEncBufs.Put(buf)
	if err != nil {
		// WriteAll truncates first, so the handle is dirty with a cut or
		// half-written file; without the abort the deferred Close would
		// commit it ("closing a file commits it").
		f.Abort() //locus:vet-allow uncheckedcall best-effort rollback
		return err
	}
	if err := f.Commit(); err != nil {
		clear(f.dirty) // the storage site discards the update at close
		return err
	}
	// Commit assigned the new content its version vector; hand the
	// snapshot to the cache so the next pathname search does not re-read
	// and re-parse what we just wrote.
	k.dirs.put(id, f.ino.VV, d)
	return nil
}

// dirInsert adds a live entry, failing if the name exists.
func (k *Kernel) dirInsert(dir storage.FileID, name string, ino storage.InodeNum) error {
	return k.updateDir(dir, func(d *format.DirSnapshot) (*format.DirSnapshot, error) {
		return insertEntry(d, name, ino)
	})
}

// dirRemove tombstones an entry, recording the file's delete-time
// version vector.
func (k *Kernel) dirRemove(dir storage.FileID, name string, delVV vclock.VV) error {
	return k.updateDir(dir, func(d *format.DirSnapshot) (*format.DirSnapshot, error) {
		return removeEntry(d, name, delVV)
	})
}

// insertEntry is dirInsert's mutation.
func insertEntry(d *format.DirSnapshot, name string, ino storage.InodeNum) (*format.DirSnapshot, error) {
	if _, exists := d.Lookup(name); exists {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	return d.Insert(name, ino), nil
}

// removeEntry is dirRemove's mutation.
func removeEntry(d *format.DirSnapshot, name string, delVV vclock.VV) (*format.DirSnapshot, error) {
	d, ok := d.Remove(name, delVV)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
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
		f.setAttr(&setAttrReq{ID: f.id, Nlink: 0, Mode: -1, SetDeleted: true})
		f.Commit() //locus:vet-allow uncheckedcall rollback
		f.Close()  //locus:vet-allow uncheckedcall rollback
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

	f, _, _, err := k.openID(r.ID, ModeModify, false)
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
// cannot cross filegroup boundaries.
func (k *Kernel) Link(cred *Cred, oldpath, newpath string) error {
	r, err := k.Resolve(cred, oldpath)
	if err != nil {
		return err
	}
	parent, name, _, err := k.ResolveParent(cred, newpath)
	if err != nil {
		return err
	}
	if parent.FG != r.ID.FG {
		return fmt.Errorf("%w: %s -> %s", ErrCrossFilegroup, newpath, oldpath)
	}
	f, _, _, err := k.openID(r.ID, ModeModify, false)
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
		// Roll back the link count.
		if g, _, _, e2 := k.openID(r.ID, ModeModify, false); e2 == nil {
			g.setAttr(&setAttrReq{ID: g.id, Nlink: g.ino.Nlink - 1, Mode: -1}) // error unchecked by design: rollback
			g.Commit()                                                         //locus:vet-allow uncheckedcall rollback
			g.Close()                                                          //locus:vet-allow uncheckedcall rollback
		}
		return err
	}
	return nil
}

// Rename moves a name within one filegroup; the file's inode is
// untouched. Within one directory it is one directory update, so one
// commit (§2.3.6) inserts the new entry and tombstones the old: no cut
// leaves both names or neither. Across directories the new entry is
// inserted first and the old removed after, and a failed removal rolls
// the insert back.
//
// newpath's parent is not searched when it is spelled as oldpath's: it
// is then the directory oldpath's last component was found in, which is
// not the old entry's directory when that component was a hidden
// directory the search expanded.
func (k *Kernel) Rename(cred *Cred, oldpath, newpath string) error {
	ino, _, dir, r, err := k.resolve(cred, oldpath, nil)
	if err != nil {
		return err
	}
	newDir, newName, err := splitParent(newpath)
	if err != nil {
		return err
	}
	newParent := dir
	if oldDir, _, err := splitParent(oldpath); err != nil || oldDir != newDir {
		if _, _, newParent, newName, err = k.resolveParent(cred, newpath); err != nil {
			return err
		}
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
		return k.updateDir(newParent, func(d *format.DirSnapshot) (*format.DirSnapshot, error) {
			d, err := insertEntry(d, newName, r.ID.Inode)
			if err != nil {
				return nil, err
			}
			return removeEntry(d, r.Name, vv)
		})
	}
	if err := k.dirInsert(newParent, newName, r.ID.Inode); err != nil {
		return err
	}
	if err := k.dirRemove(r.Parent, r.Name, vv); err != nil {
		// Roll back the insert.
		k.dirRemove(newParent, newName, vv) // error unchecked by design: rollback
		return err
	}
	return nil
}
