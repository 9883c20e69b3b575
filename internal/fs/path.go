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

// nextComp returns the first component of path at or after offset i,
// hidden escape and all, and the offset just past it; redundant slashes
// and "." components are skipped. comp is "" when none is left.
func nextComp(path string, i int) (comp string, next int) {
	for i < len(path) {
		j := i
		for j < len(path) && path[j] != '/' {
			j++
		}
		if c := path[i:j]; c != "" && c != "." {
			return c, j
		}
		i = j + 1
	}
	return "", len(path)
}

// checkPath validates an absolute path before any of it is searched — a
// bad name anywhere in it is ErrBadName, whatever else is wrong with the
// path — and counts its components.
func checkPath(path string) (n int, err error) {
	if !strings.HasPrefix(path, "/") {
		return 0, fmt.Errorf("%w: %q is not absolute", ErrBadName, path)
	}
	for c, at := nextComp(path, 0); c != ""; c, at = nextComp(path, at) {
		if !format.ValidName(strings.TrimSuffix(c, HiddenEscape)) {
			return 0, fmt.Errorf("%w: component %q", ErrBadName, c)
		}
		n++
	}
	return n, nil
}

// rootID returns the low-level name of the tree root.
func (k *Kernel) rootID() (storage.FileID, error) {
	fg, ok := k.cfg.MountAt("/")
	if !ok {
		return storage.FileID{}, fmt.Errorf("fs: no root filegroup")
	}
	return storage.FileID{FG: fg, Inode: RootInode}, nil
}

// readDirByID returns a directory's content as an internal
// unsynchronized open finds it (§2.3.4): the kernel's directory cache
// holds it, as a rule, at the version the look found, and then the search
// holds no handle and reads no page; otherwise the directory is read
// through an internal handle.
//
// Unsynchronized means a newer version can be committed (a propagation
// pull landing, say) between the look and a page read: each page is
// served from whatever is committed when it is read, and one that is not
// of the version the look found fails the read as corrupt (fetchPage).
// Such a read is retried on a fresh look rather than surfaced as a
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
	ino, ss, err := k.lookInternal(id)
	if err != nil {
		return nil, nil, err
	}
	if ino.Type != storage.TypeDirectory && ino.Type != storage.TypeHiddenDir {
		return nil, nil, fmt.Errorf("%w: %v is %v", ErrNotDir, id, ino.Type)
	}
	if d := k.dirs.get(id, ino.VV); d != nil {
		return d, ino, nil
	}
	// Pages must be read: through a registered handle, whose reads check
	// the version of every page and which partition cleanup knows of.
	f := k.internalHandle(id, ino, ss)
	defer f.Close() //locus:vet-allow uncheckedcall internal close is local bookkeeping
	d, err := k.dirs.load(id, ino.VV, f.readAllInto)
	if err != nil {
		return nil, nil, err
	}
	return d, ino, nil
}

// statType returns a file's type as an internal open finds it. A
// conflicted file still has a type: pathname searching must be able to
// name it so the resolution tools can operate on it.
func (k *Kernel) statType(id storage.FileID) (storage.FileType, error) {
	ino, _, err := k.lookInternal(id)
	if err != nil {
		if errors.Is(err, ErrConflict) {
			if sums := k.ProbeAll(id); len(sums) > 0 {
				best, _ := LatestCopy(sums)
				return sums[best].Type, nil
			}
		}
		return 0, err
	}
	return ino.Type, nil
}

// Resolve performs pathname searching (§2.3.4): starting at the root,
// each directory is opened with an internal unsynchronized read and
// searched for the next component; mount points switch filegroups, and
// hidden directories are expanded through the per-process context
// (§2.4.1) unless the component carries the escape suffix.
//
// Such an open only looks (lookInternal, searchDir): with the directories
// in the cache a search makes no handle and allocates the Resolved it
// returns and nothing else. The path is walked where it lies, after one
// pass that validates all of it.
func (k *Kernel) Resolve(cred *Cred, path string) (*Resolved, error) {
	n, err := checkPath(path)
	if err != nil {
		return nil, err
	}
	cur, err := k.rootID()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return k.resolvedRoot(cur), nil
	}
	// curPath is the canonical path of the component in hand, for the
	// mount table: a prefix of path for as long as path is spelled
	// canonically (canon), put together only from the first "//", "." or
	// "@@" on.
	res := new(Resolved)
	curPath, canon := "", true
	for i, at := 0, 0; i < n; i++ {
		var comp string
		comp, at = nextComp(path, at)
		name := strings.TrimSuffix(comp, HiddenEscape)
		escaped := len(name) < len(comp)
		if canon && !escaped && at-len(comp) == len(curPath)+1 {
			curPath = path[:at]
		} else {
			curPath, canon = curPath+"/"+name, false
		}
		if err := k.searchDir(cred, cur, curPath, name, escaped, res); err != nil {
			return nil, err
		}
		if i < n-1 {
			if res.Type != storage.TypeDirectory && res.Type != storage.TypeHiddenDir {
				return nil, fmt.Errorf("%w: %s", ErrNotDir, curPath)
			}
			cur = res.ID
		}
	}
	return res, nil
}

// resolvedRoot is what "/" resolves to.
func (k *Kernel) resolvedRoot(root storage.FileID) *Resolved {
	return &Resolved{ID: root, Name: "/", ParentSites: k.fgSites(root.FG), Type: storage.TypeDirectory}
}

// searchDir is one step of the search: it looks name up in directory dir
// with unsynchronized reads and sets *res to what it names. childPath is
// the canonical path of that entry (it ends in "/"+name) and escaped
// whether the component carried the hidden escape.
func (k *Kernel) searchDir(cred *Cred, dir storage.FileID, childPath, name string, escaped bool, res *Resolved) error {
	d, dirIno, err := k.readDirByID(dir)
	if err != nil {
		return err
	}
	e, ok := d.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %q in %s", ErrNotFound, name, pathSoFar(childPath[:len(childPath)-len(name)-1]))
	}
	child := storage.FileID{FG: dir.FG, Inode: e.Inode}

	// Mount crossing: an entry covered by a mounted filegroup resolves to
	// that filegroup's root.
	if fg, mounted := k.cfg.MountAt(childPath); mounted {
		child = storage.FileID{FG: fg, Inode: RootInode}
	}
	typ, err := k.statType(child)
	if err != nil {
		return err
	}
	*res = Resolved{ID: child, Parent: dir, Name: name, ParentSites: dirIno.Sites, Type: typ}
	if typ != storage.TypeHiddenDir || escaped {
		return nil
	}

	// Hidden directory: substitute the per-process context entry (§2.4.1
	// rule c). It is opened once, for its content and its site list both.
	hd, hdIno, err := k.readDirByID(child)
	if err != nil {
		return err
	}
	for _, ctx := range cred.HiddenCtx {
		he, ok := hd.Lookup(ctx)
		if !ok {
			continue
		}
		sub := storage.FileID{FG: child.FG, Inode: he.Inode}
		if typ, err = k.statType(sub); err != nil {
			return err
		}
		*res = Resolved{ID: sub, Parent: child, Name: he.Name, ParentSites: hdIno.Sites, Type: typ}
		return nil
	}
	return fmt.Errorf("%w: no context match in hidden directory %s (context %v)",
		ErrNotFound, childPath, cred.HiddenCtx)
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
	n, err := checkPath(path)
	if err != nil {
		return storage.FileID{}, "", nil, err
	}
	if n == 0 {
		return storage.FileID{}, "", nil, fmt.Errorf("%w: cannot operate on /", ErrBadName)
	}
	// The parent's path is everything before the last component, less the
	// slash that ends it.
	last, at := nextComp(path, 0)
	for i := 1; i < n; i++ {
		last, at = nextComp(path, at)
	}
	dirPath := "/"
	if start := at - len(last); start > 1 {
		dirPath = path[:start-1]
	}
	r, err := k.Resolve(cred, dirPath)
	if err != nil {
		return storage.FileID{}, "", nil, err
	}
	if r.Type != storage.TypeDirectory && r.Type != storage.TypeHiddenDir {
		return storage.FileID{}, "", nil, fmt.Errorf("%w: %s", ErrNotDir, dirPath)
	}
	return r.ID, strings.TrimSuffix(last, HiddenEscape), k.fileSites(r.ID), nil
}

// fgSites returns a filegroup's configured pack sites.
func (k *Kernel) fgSites(fg storage.FilegroupID) []SiteID {
	d, ok := k.cfg.FG(fg)
	if !ok {
		return nil
	}
	return d.PackSites()
}

// fileSites returns a file's storage-site list as an internal open finds
// it: the committed inode's own, to read and pass on.
func (k *Kernel) fileSites(id storage.FileID) []SiteID {
	ino, _, err := k.lookInternal(id)
	if err != nil {
		return nil
	}
	return ino.Sites
}
