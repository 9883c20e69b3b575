package fs

// Deep filesystem check ("locus-fsck"): the global structural
// invariants the chaos harness asserts after every run, exposed as a
// library so the fsck command and tests share one implementation.
//
// The checks encode what the paper's machinery guarantees once a
// partition history has been fully healed and reconciled (§4):
//
//   - no shadow page leaks: every physical page a container stores is
//     referenced by some committed inode (shadow pages are either
//     committed or freed — §2.3.6);
//   - no orphan inodes: every live file is reachable from its
//     filegroup root through live directory entries (a half-created
//     file whose directory entry was lost to a replayed or abandoned
//     create is exactly the damage at-most-once dedup prevents);
//   - no dangling entries: every live directory entry names an inode
//     that exists, live, at some pack;
//   - directories decode (naming catalogs are never torn — §2.3.4);
//   - converged (optional, post-merge): all copies of a file carry
//     equal version vectors and identical content, and no copy is in
//     unresolved conflict.

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/format"
	"repro/internal/storage"
)

// FsckFinding is one violation discovered by FsckCluster.
type FsckFinding struct {
	Site SiteID
	ID   storage.FileID
	Kind string // page-leak | orphan-inode | dangling-entry | corrupt-directory | vv-divergence | content-divergence | conflict | stranded-lease
	Msg  string
}

func (f FsckFinding) String() string {
	return fmt.Sprintf("site %d %v %s: %s", f.Site, f.ID, f.Kind, f.Msg)
}

// FsckOptions selects which invariant families to check.
type FsckOptions struct {
	// Converged additionally requires every file's copies to agree
	// (equal VVs, identical bytes, no conflict flags). Only valid after
	// a full heal + merge + reconcile + settle; mid-history the copies
	// legitimately diverge.
	Converged bool
}

// FsckCluster runs the deep check across all kernels of a cluster and
// returns every violation found (nil means clean).
func FsckCluster(kernels []*Kernel, opts FsckOptions) []FsckFinding {
	var out []FsckFinding

	// inode copies by file id, and decoded directories by file id.
	type copyAt struct {
		site SiteID
		k    *Kernel
		ino  *storage.Inode
	}
	copies := make(map[storage.FileID][]copyAt)
	dirs := make(map[storage.FileID]*format.Directory)
	fgs := make(map[storage.FilegroupID]bool)

	for _, k := range kernels {
		for _, fg := range k.store.Filegroups() {
			fgs[fg] = true
			c := k.store.Container(fg)
			referenced := make(map[storage.PhysPage]bool)
			for _, num := range c.ListInodes() {
				ino, err := c.GetInode(num)
				if err != nil {
					continue
				}
				id := storage.FileID{FG: fg, Inode: num}
				copies[id] = append(copies[id], copyAt{site: k.site, k: k, ino: ino})
				for _, p := range ino.Pages {
					if p != storage.PhysPageNil {
						referenced[p] = true
					}
				}
				if ino.Deleted {
					continue
				}
				if ino.Type.IsDir() {
					data, err := readWholeLocal(c, ino)
					if err != nil {
						out = append(out, FsckFinding{Site: k.site, ID: id, Kind: "corrupt-directory",
							Msg: fmt.Sprintf("unreadable directory content: %v", err)})
						continue
					}
					d, err := format.DecodeDir(data)
					if err != nil {
						out = append(out, FsckFinding{Site: k.site, ID: id, Kind: "corrupt-directory",
							Msg: fmt.Sprintf("undecodable directory: %v", err)})
						continue
					}
					if dirs[id] == nil {
						dirs[id] = d
					} else {
						// Union entries across copies so reachability is
						// judged against everything any site links.
						for _, e := range d.Entries {
							if _, ok := dirs[id].LookupAny(e.Name); !ok {
								dirs[id].PutRaw(e)
							}
						}
					}
				}
			}
			// Shadow-page leak: stored pages not referenced by any
			// committed inode of this container.
			if leak := c.PageCount() - len(referenced); leak > 0 {
				out = append(out, FsckFinding{Site: k.site, Kind: "page-leak",
					ID:  storage.FileID{FG: fg},
					Msg: fmt.Sprintf("%d stored physical pages not referenced by any committed inode", leak)})
			}
		}
	}

	// Reachability: BFS each filegroup from its root over live entries
	// of the unioned directory copies.
	reachable := make(map[storage.FileID]bool)
	fgList := make([]storage.FilegroupID, 0, len(fgs))
	for fg := range fgs {
		fgList = append(fgList, fg)
	}
	slices.Sort(fgList)
	for _, fg := range fgList {
		root := storage.FileID{FG: fg, Inode: RootInode}
		queue := []storage.FileID{root}
		reachable[root] = true
		for len(queue) > 0 {
			id := queue[0]
			queue = queue[1:]
			d := dirs[id]
			if d == nil {
				continue
			}
			for _, e := range d.Live() {
				child := storage.FileID{FG: fg, Inode: e.Inode}
				if !reachable[child] {
					reachable[child] = true
					queue = append(queue, child)
				}
				// Dangling entry: the named inode is live nowhere.
				live := false
				for _, cp := range copies[child] {
					if !cp.ino.Deleted {
						live = true
						break
					}
				}
				if !live {
					out = append(out, FsckFinding{Site: copies[id][0].site, ID: id, Kind: "dangling-entry",
						Msg: fmt.Sprintf("live entry %q names inode %d, which is live at no site", e.Name, e.Inode)})
				}
			}
		}
	}

	// Orphans and (optionally) convergence, in deterministic order.
	for _, id := range sortedFileIDs(copies) {
		cps := copies[id]
		liveSites := make([]SiteID, 0, len(cps))
		for _, cp := range cps {
			if !cp.ino.Deleted {
				liveSites = append(liveSites, cp.site)
			}
		}
		if len(liveSites) > 0 && !reachable[id] {
			out = append(out, FsckFinding{Site: liveSites[0], ID: id, Kind: "orphan-inode",
				Msg: fmt.Sprintf("live %v inode (nlink=%d, owner=%s, size=%d, vv=%v, sites=%v) unreachable from the filegroup root",
					cps[0].ino.Type, cps[0].ino.Nlink, cps[0].ino.Owner, cps[0].ino.Size, cps[0].ino.VV, liveSites)})
		}
		if !opts.Converged {
			continue
		}
		var ref copyAt
		for _, cp := range cps {
			if cp.ino.Conflict {
				out = append(out, FsckFinding{Site: cp.site, ID: id, Kind: "conflict",
					Msg: "copy still flagged as unresolved conflict after reconciliation"})
			}
			if cp.ino.Deleted {
				continue
			}
			if ref.k == nil {
				ref = cp
				continue
			}
			if !cp.ino.VV.Equal(ref.ino.VV) {
				out = append(out, FsckFinding{Site: cp.site, ID: id, Kind: "vv-divergence",
					Msg: fmt.Sprintf("VV %v at site %d != %v at site %d", cp.ino.VV, cp.site, ref.ino.VV, ref.site)})
				continue
			}
			a, errA := readWholeLocal(ref.k.store.Container(id.FG), ref.ino)
			b, errB := readWholeLocal(cp.k.store.Container(id.FG), cp.ino)
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				out = append(out, FsckFinding{Site: cp.site, ID: id, Kind: "content-divergence",
					Msg: fmt.Sprintf("equal VV %v but content differs between sites %d and %d", cp.ino.VV, ref.site, cp.site)})
			}
		}
	}

	// Stranded leases: every lease held at a using site must be backed
	// by the matching record at the file's CSS. The dangerous direction
	// is a holder the CSS no longer tracks — it would serve stale reads
	// (or squat the writer slot) unsupervised, since no revoke round
	// will ever visit it. The reverse direction (a CSS record with no
	// holder) is self-healing — the next conflicting open recalls it
	// and the holder answers that it is gone — so it is not flagged.
	byID := make(map[SiteID]*Kernel, len(kernels))
	for _, k := range kernels {
		byID[k.site] = k
	}
	for _, k := range kernels {
		held := k.Leases()
		for _, id := range sortedFileIDs(held) {
			mode := held[id]
			css, err := k.CSSOf(id.FG)
			if err != nil {
				out = append(out, FsckFinding{Site: k.site, ID: id, Kind: "stranded-lease",
					Msg: fmt.Sprintf("%v lease held with no CSS reachable in the partition", mode)})
				continue
			}
			ck := byID[css]
			if ck == nil {
				continue // CSS outside the checked set; nothing to compare against
			}
			ck.mu.Lock()
			ok := false
			if e := ck.cssState[id]; e != nil {
				if mode == ModeModify {
					ok = e.writerUS == k.site
				} else {
					_, ok = e.delegates[k.site]
				}
			}
			ck.mu.Unlock()
			if !ok {
				out = append(out, FsckFinding{Site: k.site, ID: id, Kind: "stranded-lease",
					Msg: fmt.Sprintf("%v lease held at site %d but CSS site %d has no matching record", mode, k.site, css)})
			}
		}
	}
	return out
}

// readWholeLocal reads the content of committed inode ino from the local
// container (no network, no serving state). Each pooled page the
// container hands over goes back to the pool once copied.
//
// A page is read from whatever version is committed when it is reached,
// so the read holds only if ino is still the committed inode after the
// last page: every commit installs a new one, so then no page came from
// another version. Otherwise it fails rather than return bytes ino never
// described.
func readWholeLocal(c *storage.Container, ino *storage.Inode) ([]byte, error) {
	if c == nil {
		return nil, fmt.Errorf("fs: no local container")
	}
	size := int(ino.Size)
	buf := make([]byte, 0, size)
	for pn := 0; pn < ino.NPages(); pn++ {
		pg, err := c.ReadLogicalPage(ino.Num, storage.PageNo(pn))
		if err != nil {
			return nil, err
		}
		buf = append(buf, pg[:min(len(pg), size-len(buf))]...)
		storage.PutPageBuf(pg)
	}
	if cur, err := c.GetInode(ino.Num); err != nil || cur != ino {
		return nil, fmt.Errorf("%w: inode %d changed during a local read", format.ErrCorrupt, ino.Num)
	}
	return buf, nil
}
