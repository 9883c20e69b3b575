package fs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/format"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
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

// dirReadAttempts bounds the reads of one directory by readDirByID. With
// four, one run in 1,000 of TestDeferredLookUnderConcurrentRenames, whose
// site 1 renames in /d as fast as site 3 looks at it and reads it, failed
// a search with a corrupt read.
const dirReadAttempts = 16

// readDirByID returns a directory's content as an internal
// unsynchronized open finds it (§2.3.4): the kernel's directory cache
// holds it, as a rule, at the version the look found, and then the search
// holds no handle and reads no page; otherwise the directory is read
// through an internal handle. ino and ss, when ino is not nil, are a look
// at id the caller already made (as the search step that found id's type
// does): the first attempt reads at that version rather than looking
// again.
//
// Unsynchronized means a newer version can be committed (a propagation
// pull landing, say) between the look and a page read: each page is
// served from whatever is committed when it is read, and one that is not
// of the version the look found fails the read as corrupt (fetchPage).
// Such a read is retried on a fresh look rather than surfaced as a
// corrupt directory, while each look finds a newer version than the read
// that failed before it (a version no newer than one that failed is not
// read again), and at most dirReadAttempts times in all: a directory that
// other sites update faster than this one can read it fails the search
// with the corrupt read rather than keeping it for ever
// (TestDirReadAttemptsBounded). A carried look's read that the network
// cut (netsim.IsCut: its site became unreachable since, or a message of
// this site's was lost, or the circuit closed under it) is retried too,
// and so is one through a delegated look, once the delegation is
// dropped, since the next look would otherwise find the same site. The inode returned is the
// committed one, shared: read it, never write through it.
func (k *Kernel) readDirByID(id storage.FileID, ino *storage.Inode, ss SiteID) (d *format.DirSnapshot, _ *storage.Inode, err error) {
	var failed vclock.VV // the version of the last read that failed
	for attempt := 1; ; attempt++ {
		carried := ino != nil
		if !carried {
			if ino, ss, err = k.lookInternal(id); err != nil {
				return nil, nil, err
			}
		}
		if d, err = k.readDirAt(id, ino, ss); err == nil {
			return d, ino, nil
		}
		cut := netsim.IsCut(err, k.site)
		delegated := cut && k.dropLease(id)
		newer := failed == nil || ino.VV.Compare(failed) == vclock.Dominates
		if attempt == dirReadAttempts || !(errors.Is(err, format.ErrCorrupt) && newer) && !(cut && (carried || delegated)) {
			return nil, nil, err
		}
		failed, ino = ino.VV, nil // the version changed under the read, or its site went: look afresh
	}
}

// readDirAt reads directory id at the version of the look (ino, ss).
func (k *Kernel) readDirAt(id storage.FileID, ino *storage.Inode, ss SiteID) (*format.DirSnapshot, error) {
	if !ino.Type.IsDir() {
		return nil, fmt.Errorf("%w: %v is %v", ErrNotDir, id, ino.Type)
	}
	return k.loadDir(id, ino, ss)
}

// statType is one search step's look at a file: its committed inode
// (shared) and the site that stores it, as an internal open finds them,
// and its type. A conflicted file still has a type — pathname searching
// must be able to name it so the resolution tools can operate on it —
// but no inode: whoever needs one looks again and meets the conflict.
func (k *Kernel) statType(id storage.FileID) (*storage.Inode, SiteID, storage.FileType, error) {
	ino, ss, err := k.lookInternal(id)
	if err != nil {
		if errors.Is(err, ErrConflict) {
			if sums := k.ProbeAll(id); len(sums) > 0 {
				best, _ := LatestCopy(sums)
				return nil, 0, sums[best].Type, nil
			}
		}
		return nil, 0, 0, err
	}
	return ino, ss, ino.Type, nil
}

// search is one pathname search in progress. Each step looks at the
// file a name it found names with the internal open of §2.3.4 (statType):
// free where this site stores the file or holds a read delegation on it
// (freeLook), and otherwise the open's exchange with the CSS.
type search struct {
	cred *Cred
	// open marks Open's search, whose last step looks only where that is
	// free (searchDir); expand is then what that step found for the open
	// (openReq.Expand).
	open, expand bool
	// last marks the search's last step.
	last bool
}

// freeLook is a search step's look at id where it sends no message: the
// local or the cached look (lookLocal, lookCached), or the one a held read
// delegation answers (leaseLook). ok is false where the look must go to
// the CSS.
func (k *Kernel) freeLook(id storage.FileID) (ino *storage.Inode, ss SiteID, ok bool) {
	if ino := k.lookLocal(id); ino != nil {
		return ino, k.site, true
	}
	if ino, ss := k.lookCached(id); ino != nil {
		return ino, ss, true
	}
	if ino, ss := k.leaseLook(id); ino != nil {
		return ino, ss, true
	}
	return nil, 0, false
}

// Resolve performs pathname searching (§2.3.4): starting at the root,
// each directory is opened with an internal unsynchronized read and
// searched for the next component; mount points switch filegroups, and
// hidden directories are expanded through the per-process context
// (§2.4.1) unless the component carries the escape suffix.
//
// Such an open only looks (lookInternal, searchDir), and at each file
// once: the look that found a component's type serves the read of its
// content in the next step. From a site that stores no copy of the
// directories, the looks at those it holds read delegations on send
// nothing (leaseLook). With the directories in the cache a search makes
// no handle and, where it stores them, allocates the Resolved it returns
// and nothing else. The path is walked where it lies, after one pass that
// validates all of it.
func (k *Kernel) Resolve(cred *Cred, path string) (*Resolved, error) {
	_, _, _, r, err := k.resolve(cred, path)
	return r, err
}

// resolve is Resolve, returning besides the look at the resolved file
// (statType) for the caller's next step, or a nil inode where there was
// none: "/" is resolved without a look, and a conflicted file's type
// without an inode. dir is the directory the last component was found
// in: res.Parent, unless a hidden directory was expanded (res.Parent is
// then that hidden directory), and zero for "/".
func (k *Kernel) resolve(cred *Cred, path string) (ino *storage.Inode, ss SiteID, dir storage.FileID, res *Resolved, err error) {
	return k.walk(&search{cred: cred}, path)
}

// walk is the search of path by s: resolve, or Open's search.
func (k *Kernel) walk(s *search, path string) (ino *storage.Inode, ss SiteID, dir storage.FileID, res *Resolved, err error) {
	n, err := checkPath(path)
	if err != nil {
		return nil, 0, storage.FileID{}, nil, err
	}
	cur, err := k.rootID()
	if err != nil {
		return nil, 0, storage.FileID{}, nil, err
	}
	if n == 0 {
		return nil, 0, storage.FileID{}, k.resolvedRoot(cur), nil
	}
	// curPath is the canonical path of the component in hand, for the
	// mount table: a prefix of path for as long as path is spelled
	// canonically (canon), put together only from the first "//", "." or
	// "@@" on.
	res = new(Resolved)
	curPath, canon := "", true
	ino, ss, _ = k.freeLook(cur)
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
		s.last = i == n-1
		if ino, ss, err = k.searchDir(s, cur, ino, ss, curPath, name, escaped, res); err != nil {
			return nil, 0, storage.FileID{}, nil, err
		}
		if i < n-1 {
			if !res.Type.IsDir() {
				return nil, 0, storage.FileID{}, nil, fmt.Errorf("%w: %s", ErrNotDir, curPath)
			}
			cur = res.ID
		}
	}
	return ino, ss, cur, res, nil
}

// resolvedRoot is what "/" resolves to.
func (k *Kernel) resolvedRoot(root storage.FileID) *Resolved {
	return &Resolved{ID: root, Name: "/", ParentSites: k.fgSites(root.FG), Type: storage.TypeDirectory}
}

// searchDir is one step of search s: it looks name up in directory dir,
// read at the look (dirIno, dirSS) when the previous step made one, sets
// *res to what the name names and returns the look at that (statType).
// childPath is the canonical path of that entry (it ends in "/"+name) and
// escaped whether the component carried the hidden escape.
// Open's last step (s.open) looks only where that is free (lookLocal);
// otherwise the open is the look, and the step sets no inode and no type,
// and s.expand unless escaped (openReq.Expand).
func (k *Kernel) searchDir(s *search, dir storage.FileID, dirIno *storage.Inode, dirSS SiteID, childPath, name string, escaped bool, res *Resolved) (*storage.Inode, SiteID, error) {
	d, dirIno, err := k.readDirByID(dir, dirIno, dirSS)
	if err != nil {
		return nil, 0, err
	}
	e, ok := d.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q in %s", ErrNotFound, name, pathSoFar(childPath[:len(childPath)-len(name)-1]))
	}
	child := storage.FileID{FG: dir.FG, Inode: e.Inode}

	// Mount crossing: an entry covered by a mounted filegroup resolves to
	// that filegroup's root.
	if fg, mounted := k.cfg.MountAt(childPath); mounted {
		child = storage.FileID{FG: fg, Inode: RootInode}
	}
	*res = Resolved{ID: child, Parent: dir, Name: name, ParentSites: dirIno.Sites}
	var ino *storage.Inode
	ss := k.site
	if s.open && s.last {
		if ino = k.lookLocal(child); ino == nil {
			s.expand = !escaped
			return nil, 0, nil
		}
		res.Type = ino.Type
	} else if ino, ss, res.Type, err = k.statType(child); err != nil {
		return nil, 0, err
	}
	if res.Type != storage.TypeHiddenDir || escaped {
		return ino, ss, nil
	}
	return k.expandHidden(s, child, ino, ss, childPath, true, res)
}

// expandHidden substitutes the context entry of hidden directory hd
// (§2.4.1 rule c) for search s, read at the look (ino, ss) that found its
// type: it sets *res to the entry and, when look asks, returns the look
// at it (statType).
func (k *Kernel) expandHidden(s *search, hd storage.FileID, ino *storage.Inode, ss SiteID, hdPath string, look bool, res *Resolved) (*storage.Inode, SiteID, error) {
	d, hdIno, err := k.readDirByID(hd, ino, ss)
	if err != nil {
		return nil, 0, err
	}
	for _, ctx := range s.cred.HiddenCtx {
		if e, ok := d.Lookup(ctx); ok {
			*res = Resolved{ID: storage.FileID{FG: hd.FG, Inode: e.Inode}, Parent: hd, Name: e.Name, ParentSites: hdIno.Sites}
			if !look {
				return nil, 0, nil
			}
			ino, ss, res.Type, err = k.statType(res.ID)
			return ino, ss, err
		}
	}
	return nil, 0, fmt.Errorf("%w: no context match in hidden directory %s (context %v)",
		ErrNotFound, hdPath, s.cred.HiddenCtx)
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
	ino, _, parent, name, err := k.resolveParent(cred, path)
	if ino != nil {
		parentSites = ino.Sites
	}
	return parent, name, parentSites, err
}

// resolveParent is ResolveParent, returning the parent's look (resolve)
// for the caller's next step in place of its site list; "/" is looked at
// here. The inode is nil when that look failed: the next step that needs
// one looks again and reports why.
func (k *Kernel) resolveParent(cred *Cred, path string) (ino *storage.Inode, ss SiteID, parent storage.FileID, name string, err error) {
	dirPath, name, err := splitParent(path)
	if err != nil {
		return nil, 0, storage.FileID{}, "", err
	}
	ino, ss, _, r, err := k.resolve(cred, dirPath)
	if err != nil {
		return nil, 0, storage.FileID{}, "", err
	}
	if !r.Type.IsDir() {
		return nil, 0, storage.FileID{}, "", fmt.Errorf("%w: %s", ErrNotDir, dirPath)
	}
	if ino == nil {
		ino, ss, _ = k.lookInternal(r.ID)
	}
	return ino, ss, r.ID, name, nil
}

// splitParent validates path and splits it into its parent's path,
// everything before the last component less the slash that ends it, and
// that component, the hidden escape trimmed.
func splitParent(path string) (dirPath, name string, err error) {
	n, err := checkPath(path)
	if err != nil {
		return "", "", err
	}
	if n == 0 {
		return "", "", fmt.Errorf("%w: cannot operate on /", ErrBadName)
	}
	last, at := nextComp(path, 0)
	for i := 1; i < n; i++ {
		last, at = nextComp(path, at)
	}
	dirPath = "/"
	if start := at - len(last); start > 1 {
		dirPath = path[:start-1]
	}
	return dirPath, strings.TrimSuffix(last, HiddenEscape), nil
}

// fgSites returns a filegroup's configured pack sites.
func (k *Kernel) fgSites(fg storage.FilegroupID) []SiteID {
	d, ok := k.cfg.FG(fg)
	if !ok {
		return nil
	}
	return d.PackSites()
}
