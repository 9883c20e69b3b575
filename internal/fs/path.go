package fs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/format"
	"repro/internal/storage"
)

// HiddenEscape is the suffix that makes a hidden directory visible in a
// pathname so "they can be examined and specific entries manipulated"
// (§2.4.1 rule d). "/bin/who" resolves through the process context;
// "/bin/who@@/vax" names the vax entry explicitly.
const HiddenEscape = "@@"

// Resolved is the result of pathname searching: the file's low-level
// name plus where its directory entry lives.
type Resolved struct {
	ID storage.FileID
	// Parent is the directory holding the final entry (zero for a
	// filegroup root).
	Parent storage.FileID
	// Name is the final pathname component (after hidden-context
	// substitution, the substituted entry name).
	Name string
	// ParentSites is the parent directory's storage-site list, needed
	// by the create placement rules.
	ParentSites []SiteID
	// Type is the resolved file's type.
	Type storage.FileType
}

// splitPath normalizes an absolute path into components.
func splitPath(path string) ([]string, error) {
	if !strings.HasPrefix(path, "/") {
		return nil, fmt.Errorf("%w: %q is not absolute", ErrBadName, path)
	}
	var comps []string
	for _, c := range strings.Split(path, "/") {
		if c == "" || c == "." {
			continue
		}
		name := strings.TrimSuffix(c, HiddenEscape)
		if !format.ValidName(name) {
			return nil, fmt.Errorf("%w: component %q", ErrBadName, c)
		}
		comps = append(comps, c)
	}
	return comps, nil
}

// rootID returns the low-level name of the tree root.
func (k *Kernel) rootID() (storage.FileID, error) {
	fg, ok := k.cfg.MountAt("/")
	if !ok {
		return storage.FileID{}, fmt.Errorf("fs: no root filegroup")
	}
	return storage.FileID{FG: fg, Inode: RootInode}, nil
}

// readDirByID returns a directory's content through an internal
// unsynchronized open (§2.3.4), from the kernel's directory cache when
// it holds the version the open found.
//
// Unsynchronized means a newer version can be committed (a propagation
// pull landing, say) between the open and a page read: each page is
// served from whatever is committed when it is read, and one that is not
// of the version the open found fails the read as corrupt (fetchPage).
// Such a read is retried on a fresh open rather than surfaced as a
// corrupt directory. The inode returned is the committed one, shared:
// read it, never write through it.
func (k *Kernel) readDirByID(id storage.FileID) (d *format.DirSnapshot, ino *storage.Inode, err error) {
	for attempt := 0; attempt < 4; attempt++ {
		if d, ino, err = k.readDirOnce(id); !errors.Is(err, format.ErrCorrupt) {
			break
		}
	}
	return d, ino, err
}

func (k *Kernel) readDirOnce(id storage.FileID) (*format.DirSnapshot, *storage.Inode, error) {
	f, err := k.OpenID(id, ModeInternal)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //locus:vet-allow uncheckedcall internal close is local bookkeeping
	if f.ino.Type != storage.TypeDirectory && f.ino.Type != storage.TypeHiddenDir {
		return nil, nil, fmt.Errorf("%w: %v is %v", ErrNotDir, id, f.ino.Type)
	}
	d, err := k.dirs.load(id, f.ino.VV, f.readAllInto)
	if err != nil {
		return nil, nil, err
	}
	return d, f.ino, nil
}

// statType returns a file's type via an internal open. A conflicted
// file still has a type: pathname searching must be able to name it so
// the resolution tools can operate on it.
func (k *Kernel) statType(id storage.FileID) (storage.FileType, error) {
	f, err := k.OpenID(id, ModeInternal)
	if err != nil {
		if errors.Is(err, ErrConflict) {
			if best, _, found := k.ProbeSummary(id); found {
				return best.Type, nil
			}
		}
		return 0, err
	}
	t := f.ino.Type
	f.Close() //locus:vet-allow uncheckedcall internal close
	return t, nil
}

// Resolve performs pathname searching (§2.3.4): starting at the root,
// each directory is opened with an internal unsynchronized read and
// searched for the next component; mount points switch filegroups, and
// hidden directories are expanded through the per-process context
// (§2.4.1) unless the component carries the escape suffix.
func (k *Kernel) Resolve(cred *Cred, path string) (*Resolved, error) {
	if k.Features().PathShipping {
		return k.resolveShipped(cred, path)
	}
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	cur, err := k.rootID()
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		sites := k.fgSites(cur.FG)
		return &Resolved{ID: cur, Name: "/", ParentSites: sites, Type: storage.TypeDirectory}, nil
	}

	curPath := ""
	var res *Resolved
	for i, comp := range comps {
		escaped := strings.HasSuffix(comp, HiddenEscape)
		name := strings.TrimSuffix(comp, HiddenEscape)

		d, parentIno, err := k.readDirByID(cur)
		if err != nil {
			return nil, err
		}
		e, ok := d.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("%w: %q in %s", ErrNotFound, name, pathSoFar(curPath))
		}
		child := storage.FileID{FG: cur.FG, Inode: e.Inode}
		curPath = curPath + "/" + name

		// Mount crossing: an entry covered by a mounted filegroup
		// resolves to that filegroup's root.
		if fg, mounted := k.cfg.MountAt(curPath); mounted {
			child = storage.FileID{FG: fg, Inode: RootInode}
		}

		typ, err := k.statType(child)
		if err != nil {
			return nil, err
		}

		// Hidden directory: substitute the per-process context entry
		// unless escaped (§2.4.1 rule c).
		if typ == storage.TypeHiddenDir && !escaped {
			hd, _, err := k.readDirByID(child)
			if err != nil {
				return nil, err
			}
			var he format.DirEntry
			found := false
			for _, ctx := range cred.HiddenCtx {
				if cand, ok := hd.Lookup(ctx); ok {
					he, found = cand, true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("%w: no context match in hidden directory %s (context %v)",
					ErrNotFound, curPath, cred.HiddenCtx)
			}
			parent := child
			child = storage.FileID{FG: parent.FG, Inode: he.Inode}
			typ, err = k.statType(child)
			if err != nil {
				return nil, err
			}
			res = &Resolved{ID: child, Parent: parent, Name: he.Name,
				ParentSites: k.fileSites(parent), Type: typ}
		} else {
			res = &Resolved{ID: child, Parent: cur, Name: name,
				ParentSites: parentIno.Sites, Type: typ}
		}

		if i < len(comps)-1 {
			if typ != storage.TypeDirectory && typ != storage.TypeHiddenDir {
				return nil, fmt.Errorf("%w: %s", ErrNotDir, curPath)
			}
			cur = child
		}
	}
	return res, nil
}

func pathSoFar(p string) string {
	if p == "" {
		return "/"
	}
	return p
}

// ResolveParent resolves everything but the last component, returning
// the parent directory and the (possibly nonexistent) final name. The
// final name must not carry the hidden escape.
func (k *Kernel) ResolveParent(cred *Cred, path string) (parent storage.FileID, name string, parentSites []SiteID, err error) {
	comps, err := splitPath(path)
	if err != nil {
		return storage.FileID{}, "", nil, err
	}
	if len(comps) == 0 {
		return storage.FileID{}, "", nil, fmt.Errorf("%w: cannot operate on /", ErrBadName)
	}
	last := comps[len(comps)-1]
	if strings.HasSuffix(last, HiddenEscape) {
		last = strings.TrimSuffix(last, HiddenEscape)
	}
	dirPath := "/" + strings.Join(trimEscapes(comps[:len(comps)-1]), "/")
	r, err := k.Resolve(cred, dirPath)
	if err != nil {
		return storage.FileID{}, "", nil, err
	}
	if r.Type != storage.TypeDirectory && r.Type != storage.TypeHiddenDir {
		return storage.FileID{}, "", nil, fmt.Errorf("%w: %s", ErrNotDir, dirPath)
	}
	return r.ID, last, k.fileSites(r.ID), nil
}

func trimEscapes(comps []string) []string {
	return comps // escapes are preserved; Resolve handles them
}

// fgSites returns a filegroup's configured pack sites.
func (k *Kernel) fgSites(fg storage.FilegroupID) []SiteID {
	d, ok := k.cfg.FG(fg)
	if !ok {
		return nil
	}
	return d.PackSites()
}

// fileSites returns a file's storage-site list via an internal open.
func (k *Kernel) fileSites(id storage.FileID) []SiteID {
	f, err := k.OpenID(id, ModeInternal)
	if err != nil {
		return nil
	}
	sites := append([]SiteID(nil), f.ino.Sites...)
	f.Close() //locus:vet-allow uncheckedcall internal close
	return sites
}
