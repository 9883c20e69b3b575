package fs

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/format"
	"repro/internal/netsim"
	"repro/internal/storage"
)

// Pathname shipping: §2.3.4 closes with "Another strategy for pathname
// searching is to ship partial pathnames to foreign sites so they can
// do the expansion locally, avoiding remote directory opens and network
// transmission of directory pages. Such a solution is being
// investigated but is more complex in the general case because the SS
// for each intermediate directory could be different."
//
// This file implements that strategy as an opt-in feature
// (Features.PathShipping; the default walk matches the paper's
// deployed system). The using site walks components locally for as
// long as the directories are stored locally; when it gets stuck it
// ships the remaining components to the filegroup's CSS, which expands
// as many as *it* can locally and returns the progress; any component
// neither site can expand locally falls back to the paper's standard
// remote-directory-read walk for that one step. The complexity the
// paper warns about — each intermediate directory possibly having a
// different SS — is exactly what the per-hop fallback handles.

// mResolveShip is US → CSS: expand the shipped components locally. It
// may perform dirops at the shipped-to site.
var mResolveShip = netsim.Method[resolveShipReq, resolveShipResp]{Name: "fs.resolvepath", AtMostOnce: true}

type resolveShipReq struct {
	Start     storage.FileID
	StartPath string // absolute path of Start (mount-table context)
	Comps     []string
	HiddenCtx []string
}

type resolveShipResp struct {
	Consumed int
	Cur      storage.FileID
	CurPath  string
	// Final is set when the last consumed component completed the walk.
	Final *Resolved
}

func (k *Kernel) handleResolveShip(_ SiteID, req *resolveShipReq) (*resolveShipResp, error) {
	cred := &Cred{HiddenCtx: req.HiddenCtx}
	consumed, cur, curPath, final, err := k.walkLocal(cred, req.Start, req.StartPath, req.Comps)
	if err != nil {
		return nil, err
	}
	return &resolveShipResp{Consumed: consumed, Cur: cur, CurPath: curPath, Final: final}, nil
}

// localDir returns a directory served wholly from the local container,
// or reports false if this site cannot serve it authoritatively (not
// stored here, pending propagation, conflicted).
func (k *Kernel) localDir(id storage.FileID) (*format.DirSnapshot, *storage.Inode, bool) {
	c := k.container(id.FG)
	if c == nil || !c.HasInode(id.Inode) {
		return nil, nil, false
	}
	k.mu.Lock()
	_, pending := k.pendingProp[id]
	k.mu.Unlock()
	if pending {
		return nil, nil, false
	}
	ino, err := c.GetInode(id.Inode)
	if err != nil || ino.Deleted || ino.Conflict {
		return nil, nil, false
	}
	if ino.Type != storage.TypeDirectory && ino.Type != storage.TypeHiddenDir {
		return nil, nil, false
	}
	d, err := k.dirs.load(id, ino.VV, func(buf []byte) ([]byte, error) {
		return readWholeLocal(c, ino, buf)
	})
	if err != nil {
		return nil, nil, false
	}
	return d, ino, true
}

// localInode fetches an inode if committed locally and clean.
func (k *Kernel) localInode(id storage.FileID) (*storage.Inode, bool) {
	c := k.container(id.FG)
	if c == nil || !c.HasInode(id.Inode) {
		return nil, false
	}
	k.mu.Lock()
	_, pending := k.pendingProp[id]
	k.mu.Unlock()
	if pending {
		return nil, false
	}
	ino, err := c.GetInode(id.Inode)
	if err != nil || ino.Deleted {
		return nil, false
	}
	return ino, true
}

// walkLocal consumes as many leading components as this site can
// expand from purely local, current directory copies. It returns how
// many components were consumed, the position reached, and — when the
// walk completed — the final resolution.
func (k *Kernel) walkLocal(cred *Cred, cur storage.FileID, curPath string, comps []string) (int, storage.FileID, string, *Resolved, error) {
	consumed := 0
	for consumed < len(comps) {
		comp := comps[consumed]
		escaped := strings.HasSuffix(comp, HiddenEscape)
		name := strings.TrimSuffix(comp, HiddenEscape)

		d, parentIno, ok := k.localDir(cur)
		if !ok {
			return consumed, cur, curPath, nil, nil // stuck: not local
		}
		e, found := d.Lookup(name)
		if !found {
			return consumed, cur, curPath, nil,
				fmt.Errorf("%w: %q in %s", ErrNotFound, name, pathSoFar(curPath))
		}
		child := storage.FileID{FG: cur.FG, Inode: e.Inode}
		nextPath := curPath + "/" + name
		if fg, mounted := k.cfg.MountAt(nextPath); mounted {
			child = storage.FileID{FG: fg, Inode: RootInode}
		}
		childIno, ok := k.localInode(child)
		if !ok {
			return consumed, cur, curPath, nil, nil // child inode not local: stuck
		}
		typ := childIno.Type
		res := &Resolved{ID: child, Parent: cur, Name: name,
			ParentSites: append([]SiteID(nil), parentIno.Sites...), Type: typ}

		if typ == storage.TypeHiddenDir && !escaped {
			hd, hIno, ok := k.localDir(child)
			if !ok {
				return consumed, cur, curPath, nil, nil
			}
			var he format.DirEntry
			hit := false
			for _, ctx := range cred.HiddenCtx {
				if cand, okc := hd.Lookup(ctx); okc {
					he, hit = cand, true
					break
				}
			}
			if !hit {
				return consumed, cur, curPath, nil,
					fmt.Errorf("%w: no context match in hidden directory %s", ErrNotFound, nextPath)
			}
			sub := storage.FileID{FG: child.FG, Inode: he.Inode}
			subIno, ok := k.localInode(sub)
			if !ok {
				return consumed, cur, curPath, nil, nil
			}
			typ = subIno.Type
			res = &Resolved{ID: sub, Parent: child, Name: he.Name,
				ParentSites: append([]SiteID(nil), hIno.Sites...), Type: typ}
			child = sub
		}

		consumed++
		curPath = nextPath
		if consumed == len(comps) {
			return consumed, child, curPath, res, nil
		}
		if typ != storage.TypeDirectory && typ != storage.TypeHiddenDir {
			return consumed, child, curPath, nil, fmt.Errorf("%w: %s", ErrNotDir, curPath)
		}
		cur = child
	}
	return consumed, cur, curPath, nil, nil
}

// splitPath validates an absolute path and returns its components: what
// is shipped is a list, not a string to be parsed again at every hop.
func splitPath(path string) ([]string, error) {
	n, err := checkPath(path)
	if err != nil {
		return nil, err
	}
	comps := make([]string, 0, n)
	for c, at := nextComp(path, 0); c != ""; c, at = nextComp(path, at) {
		comps = append(comps, c)
	}
	return comps, nil
}

// resolveShipped is the shipping-enabled pathname search.
func (k *Kernel) resolveShipped(cred *Cred, path string) (*Resolved, error) {
	comps, err := splitPath(path)
	if err != nil {
		return nil, err
	}
	cur, err := k.rootID()
	if err != nil {
		return nil, err
	}
	if len(comps) == 0 {
		return k.resolvedRoot(cur), nil
	}
	curPath := ""
	i := 0
	for i < len(comps) {
		// Phase 1: walk locally as far as possible.
		consumed, nc, np, final, err := k.walkLocal(cred, cur, curPath, comps[i:])
		if err != nil {
			return nil, err
		}
		i += consumed
		cur, curPath = nc, np
		if final != nil && i == len(comps) {
			return final, nil
		}
		if i >= len(comps) {
			break
		}

		// Phase 2: ship the remaining components to the filegroup's
		// CSS for local expansion there.
		css, err := k.CSSOf(cur.FG)
		if err != nil {
			return nil, err
		}
		if css != k.site {
			r, err := netsim.Call(k.node, css, mResolveShip, &resolveShipReq{
				Start: cur, StartPath: curPath, Comps: comps[i:], HiddenCtx: cred.HiddenCtx,
			})
			if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrNotDir) {
				return nil, err
			}
			if err != nil {
				return nil, err // authoritative naming error from remote walk
			}
			if r.Consumed > 0 {
				i += r.Consumed
				cur, curPath = r.Cur, r.CurPath
				if r.Final != nil && i == len(comps) {
					return r.Final, nil
				}
				continue
			}
		}

		// Phase 3: neither we nor the CSS store this directory — do a
		// single standard remote-read step (the paper's base strategy).
		name := strings.TrimSuffix(comps[i], HiddenEscape)
		res, next := new(Resolved), curPath+"/"+name
		if err := k.searchDir(cred, cur, next, name, len(name) < len(comps[i]), res); err != nil {
			return nil, err
		}
		i++
		cur, curPath = res.ID, next
		if i == len(comps) {
			return res, nil
		}
		if res.Type != storage.TypeDirectory && res.Type != storage.TypeHiddenDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, curPath)
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
}
