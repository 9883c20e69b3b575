package fs

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// This file is the kernel interface used by the reconciliation layer
// (internal/recon): enumeration of a pack's inodes, raw access to a
// specific pack's copy of a file (normal opens refuse conflicted
// copies; reconciliation must read them), and the privileged commit
// that installs a merged result with an explicitly chosen version
// vector.

var (
	// mListInodes enumerates a pack's committed inodes.
	mListInodes = netsim.Method[listInodesReq, listInodesResp]{Name: "fs.listinodes"}
	// mMarkConflict (one-way) sets the conflict marking on a pack's
	// copy; marking twice leaves the same state.
	mMarkConflict = netsim.OneWay[markConflictReq]{Name: "fs.markconflict"}
)

// InodeSummary describes one committed inode at one pack.
type InodeSummary struct {
	// Site is the pack site this summary came from.
	Site     SiteID
	Num      storage.InodeNum
	Type     storage.FileType
	VV       vclock.VV
	Size     int64
	Deleted  bool
	Conflict bool
	Nlink    int
	Owner    string
	Sites    []SiteID
}

type listInodesReq struct {
	FG storage.FilegroupID
}

type listInodesResp struct {
	Inodes []InodeSummary
}

type markConflictReq struct {
	ID storage.FileID
}

func (k *Kernel) registerReconHandlers() {
	netsim.Handle(k.node, mListInodes, k.handleListInodes)
	netsim.HandleCast(k.node, mMarkConflict, k.handleMarkConflict)
}

// ListLocalInodes enumerates the committed inodes of this site's pack
// for a filegroup.
func (k *Kernel) ListLocalInodes(fg storage.FilegroupID) []InodeSummary {
	c := k.container(fg)
	if c == nil {
		return nil
	}
	var out []InodeSummary
	for _, num := range c.ListInodes() {
		ino, err := c.GetInode(num)
		if err != nil {
			continue
		}
		out = append(out, InodeSummary{
			Site: k.site, Num: num, Type: ino.Type, VV: ino.VV, Size: ino.Size,
			Deleted: ino.Deleted, Conflict: ino.Conflict,
			Nlink: ino.Nlink, Owner: ino.Owner,
			Sites: append([]SiteID(nil), ino.Sites...),
		})
	}
	return out
}

func (k *Kernel) handleListInodes(_ SiteID, req *listInodesReq) (*listInodesResp, error) {
	return &listInodesResp{Inodes: k.ListLocalInodes(req.FG)}, nil
}

// ListInodesAt enumerates a (possibly remote) pack's inodes.
func (k *Kernel) ListInodesAt(site SiteID, fg storage.FilegroupID) ([]InodeSummary, error) {
	if site == k.site {
		return k.ListLocalInodes(fg), nil
	}
	resp, err := netsim.Call(k.node, site, mListInodes, &listInodesReq{FG: fg})
	if err != nil {
		return nil, err
	}
	return resp.Inodes, nil
}

// FetchCopyFrom reads a specific pack's committed copy of a file — the
// inode and full content — regardless of conflict markings. This is
// the reconciliation read path (normal opens would refuse).
func (k *Kernel) FetchCopyFrom(site SiteID, id storage.FileID) (*storage.Inode, []byte, error) {
	var ino *storage.Inode
	if site == k.site {
		c := k.container(id.FG)
		if c == nil {
			return nil, nil, fmt.Errorf("%w: %v at %d", ErrNotFound, id, site)
		}
		var err error
		ino, err = c.GetInode(id.Inode)
		if err != nil {
			return nil, nil, err
		}
	} else {
		resp, err := netsim.Call(k.node, site, mPullOpen, &pullOpenReq{ID: id})
		if err != nil {
			return nil, nil, err
		}
		ino = resp.Ino
	}
	if ino.Deleted {
		return ino.Clone(), nil, nil
	}
	data := make([]byte, 0, ino.Size)
	for _, pp := range ino.Pages {
		if pp == storage.PhysPageNil {
			data = append(data, zeroPage...)
			continue
		}
		// Local or remote, the page read is a pooled copy made for this
		// caller, who gives it back once the bytes are out.
		var page []byte
		if site == k.site {
			var err error
			page, err = k.container(id.FG).ReadPage(pp)
			if err != nil {
				return nil, nil, err
			}
		} else {
			resp, err := netsim.Call(k.node, site, mReadPhys, &readPhysReq{FG: id.FG, Phys: pp})
			if err != nil {
				return nil, nil, err
			}
			page = resp.Data
		}
		data = append(data, page...)
		storage.PutPageBuf(page)
	}
	if int64(len(data)) > ino.Size {
		data = data[:ino.Size]
	}
	return ino.Clone(), data, nil
}

// ReconcileCommit installs a merged version of a file at this site's
// pack with the given inode metadata (including the merged, bumped
// version vector) and content, then notifies the file's other storage
// sites so they pull the reconciled version through the ordinary
// propagation path.
func (k *Kernel) ReconcileCommit(id storage.FileID, ino *storage.Inode, content []byte) error {
	c := k.container(id.FG)
	if c == nil {
		return fmt.Errorf("%w: site %d stores no pack of %d", ErrNoStorageSite, k.site, id.FG)
	}
	newIno := ino.Clone()
	newIno.Num = id.Inode
	newIno.Conflict = false
	newIno.Pages = nil
	if !newIno.Deleted {
		newIno.Size = int64(len(content))
		for off := 0; off < len(content); off += storage.PageSize {
			end := off + storage.PageSize
			if end > len(content) {
				end = len(content)
			}
			pp, err := c.WritePage(content[off:end])
			if err != nil {
				// Pages written by earlier iterations are reachable only
				// through newIno, which is being abandoned: free them or
				// they linger until the next garbage collection.
				c.FreePages(newIno.Pages...)
				return err
			}
			newIno.Pages = append(newIno.Pages, pp)
		}
	} else {
		newIno.Size = 0
	}
	if err := c.CommitInode(newIno); err != nil {
		c.FreePages(newIno.Pages...)
		return err
	}
	k.notifyCommit(id, newIno, nil)
	return nil
}

// MarkConflict marks every reachable copy of a file as being in
// unresolved version conflict, "so normal attempts to access them
// fail" (§4.6). The marking preserves each copy's version vector.
func (k *Kernel) MarkConflict(id storage.FileID, sites []SiteID) {
	for _, s := range sites {
		if s == k.site {
			k.handleMarkConflict(k.site, &markConflictReq{ID: id}) // error unchecked by design: local marking cannot fail usefully
			continue
		}
		if k.inPartition(s) {
			netsim.Cast(k.node, s, mMarkConflict, &markConflictReq{ID: id}) //locus:vet-allow uncheckedcall unreachable packs marked at next merge
		}
	}
}

func (k *Kernel) handleMarkConflict(_ SiteID, req *markConflictReq) error {
	c := k.container(req.ID.FG)
	if c == nil || !c.HasInode(req.ID.Inode) {
		return nil
	}
	committed, err := c.GetInode(req.ID.Inode)
	if err != nil || committed.Conflict {
		return nil
	}
	ino := committed.Clone()
	ino.Conflict = true
	return c.CommitInode(ino)
}

// SchedulePullAt enqueues ordinary propagation pulls of a file at the
// given sites, naming origin as the holder of the version vv. The
// reconciliation layer uses this when version vectors show plain
// staleness rather than conflict.
func (k *Kernel) SchedulePullAt(sites []SiteID, id storage.FileID, vv vclock.VV, origin SiteID) {
	note := &propNotify{ID: id, VV: vv, Origin: origin, Sites: sites}
	for _, s := range sites {
		if s == origin {
			continue
		}
		if s == k.site {
			k.applyPropNotify(k.site, note)
		} else if k.inPartition(s) {
			netsim.Cast(k.node, s, mPropNotify, note) //locus:vet-allow uncheckedcall unreachable sites retry at next merge
		}
	}
}

// ProbeAll polls the filegroup's packs in this partition for their
// copies of a file (fs.getvv; an unreachable pack is skipped) and
// returns what each holds, in pack order. The summaries carry the
// version fields only: type, vector, the deleted and conflict marks,
// and storage sites.
func (k *Kernel) ProbeAll(id storage.FileID) []InodeSummary {
	sites := k.packSitesInPartition(id.FG)
	out := make([]InodeSummary, 0, len(sites))
	for _, s := range sites {
		var r getVVResp
		if s == k.site {
			r = k.localGetVV(id)
		} else {
			resp, err := netsim.Call(k.node, s, mGetVV, &getVVReq{ID: id})
			if err != nil {
				continue
			}
			r = *resp
		}
		if r.Has {
			out = append(out, InodeSummary{Site: s, Num: id.Inode, Type: r.Type, VV: r.VV, Deleted: r.Deleted, Conflict: r.Conflict, Sites: r.Sites})
		}
	}
	return out
}

// LatestCopy is vclock.Latest over the copies' vectors: the index of
// the current copy and true, or, when the copies conflict, the index of
// a maximal one and false.
func LatestCopy(sums []InodeSummary) (int, bool) {
	var buf [4]vclock.VV // a replica set, as a rule: on the stack
	vvs := buf[:0]
	for _, s := range sums {
		vvs = append(vvs, s.VV)
	}
	return vclock.Latest(vvs)
}
