package recon

import (
	"fmt"
	"sort"

	"repro/internal/format"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// mergeDirectories implements the directory reconciliation algorithm of
// §4.4. Each copy is a set of records (live entries and delete
// tombstones). The merge:
//
//  1. checks for name conflicts — the same name bound to different
//     inodes in different partitions — and renames both apart,
//     notifying the owners by electronic mail;
//  2. resolves the remaining records inode by inode with rules (a)-(d):
//     (a) an entry present in one copy and not the other propagates;
//     (b) a delete present in one copy and absent in the other
//     propagates, unless the file was modified since the delete;
//     (c) entries present and live in both need no action;
//     (d) a delete in one copy racing a live entry in the other is
//     decided by interrogating the inode: if the data was modified
//     since the delete, the delete is undone, otherwise it
//     propagates.
func (r *Reconciler) mergeDirectories(id storage.FileID, copies []Copy, rep *Report) error {
	type variant struct {
		entry format.DirEntry
		sites []SiteID // copies carrying this exact binding
	}
	decoded := make([]*format.Directory, len(copies))
	for i, c := range copies {
		d, err := format.DecodeDir(c.Content)
		if err != nil {
			return fmt.Errorf("recon: directory %v copy at site %d: %w", id, copies[i].Site, err)
		}
		decoded[i] = d
	}

	// Group records by name.
	names := map[string]bool{}
	for _, d := range decoded {
		for _, e := range d.Entries {
			names[e.Name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	result := &format.Directory{}
	for _, name := range sorted {
		// Collect the per-copy record (or absence) for this name.
		var variants []variant
		for i, d := range decoded {
			e, ok := d.LookupAny(name)
			if !ok {
				continue
			}
			merged := false
			for vi := range variants {
				if variants[vi].entry.Inode == e.Inode && variants[vi].entry.Deleted == e.Deleted {
					variants[vi].sites = append(variants[vi].sites, copies[i].Site)
					merged = true
					break
				}
			}
			if !merged {
				variants = append(variants, variant{entry: e, sites: []SiteID{copies[i].Site}})
			}
		}

		// Drop live bindings to files that no longer exist: a stale
		// directory copy (typically a crashed site's old disk) can carry
		// a live entry for an inode whose delete has already won
		// everywhere. Resurrecting or conflict-renaming such a binding
		// would leave a dangling entry.
		kept := variants[:0]
		for _, v := range variants {
			if !v.entry.Deleted && !r.bindingAlive(storage.FileID{FG: id.FG, Inode: v.entry.Inode}) {
				continue
			}
			kept = append(kept, v)
		}
		if variants = kept; len(variants) == 0 {
			continue
		}

		// Distinct live inodes under one name → name conflict (rule 1).
		liveInodes := map[storage.InodeNum]format.DirEntry{}
		for _, v := range variants {
			if !v.entry.Deleted {
				liveInodes[v.entry.Inode] = v.entry
			}
		}
		if len(liveInodes) > 1 {
			nums := make([]storage.InodeNum, 0, len(liveInodes))
			for n := range liveInodes {
				nums = append(nums, n)
			}
			sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })
			for _, n := range nums {
				altered := fmt.Sprintf("%s!i%d", name, n)
				result.Insert(altered, n)
				owner := r.ownerOf(storage.FileID{FG: id.FG, Inode: n})
				r.queueMail(owner, "locus-recovery",
					fmt.Sprintf("name conflict in directory %v: %q renamed to %q", id, name, altered))
			}
			rep.NameConflicts++
			continue
		}

		// One inode (or tombstones only): rules (a)-(d).
		var live, dead *variant
		for i := range variants {
			if variants[i].entry.Deleted {
				if dead == nil || variants[i].entry.DelVV.Compare(dead.entry.DelVV) == vclock.Dominates {
					dead = &variants[i]
				}
			} else {
				live = &variants[i]
			}
		}
		switch {
		case live != nil && dead == nil:
			// (a)/(c): propagate or keep the live entry.
			result.PutRaw(live.entry)
		case live == nil && dead != nil:
			// (b): propagate the delete, unless the file was modified
			// since the delete.
			fid := storage.FileID{FG: id.FG, Inode: dead.entry.Inode}
			if r.modifiedSinceDelete(fid, dead.entry.DelVV) {
				result.Insert(dead.entry.Name, dead.entry.Inode)
				rep.DeletesUndone++
			} else {
				result.PutRaw(dead.entry)
			}
		case live != nil && dead != nil:
			if dead.entry.Inode != live.entry.Inode {
				// The tombstone records the delete of a different file
				// that once held this name; it says nothing about the
				// live binding (one partition deleted its file while
				// another independently created a new one under the same
				// name). Dropping the live entry here would orphan a
				// committed inode.
				result.PutRaw(live.entry)
				break
			}
			// (d): delete in one partition, live in the other.
			fid := storage.FileID{FG: id.FG, Inode: dead.entry.Inode}
			if r.modifiedSinceDelete(fid, dead.entry.DelVV) {
				result.PutRaw(live.entry)
				rep.DeletesUndone++
				owner := r.ownerOf(fid)
				r.queueMail(owner, "locus-recovery",
					fmt.Sprintf("delete of %q in directory %v undone: the file was modified after the delete", name, id))
			} else {
				result.PutRaw(dead.entry)
			}
		}
	}

	if err := r.commitMerged(id, copies, format.EncodeDir(result), copies[0].Inode); err != nil {
		return err
	}
	rep.DirsMerged++
	return nil
}

// bindingAlive interrogates a directory entry's target across the
// partition: the binding is alive when some live copy of the inode is
// not dominated by a deleted copy (i.e. the deletion will not win the
// file-level reconciliation).
func (r *Reconciler) bindingAlive(id storage.FileID) bool {
	sums := r.k.ProbeAll(id)
	if len(sums) == 0 {
		// No reachable pack knows the inode — its storage sites may all
		// be outside the partition. Keep the binding: dropping it would
		// lose a file we cannot interrogate.
		return true
	}
	var dels []vclock.VV
	for _, s := range sums {
		if s.Deleted {
			dels = append(dels, s.VV)
		}
	}
	for _, s := range sums {
		if s.Deleted {
			continue
		}
		dominated := false
		for _, dv := range dels {
			if dv.DominatesOrEqual(s.VV) {
				dominated = true
				break
			}
		}
		if !dominated {
			return true
		}
	}
	return false
}

// relinkResurrected restores the naming of a file brought back by a
// delete/update resolution (§4.4: "a file which was deleted in one
// partition while it was modified in another, wants to be saved"). The
// file-level resurrect can run after the directory copies have already
// converged on the tombstone — a stalled propagation may deliver the
// deleting partition's directory before reconciliation compares the
// copies — which would leave the saved file as a live inode with no
// link. This scans the filegroup's directories for the tombstone
// naming the file and turns it back into a live entry
// (conflict-renaming it if the name has since been reused), committing
// the directory with a dominating vector so the relink propagates.
func (r *Reconciler) relinkResurrected(id storage.FileID) {
	k := r.k
	d, ok := k.Config().FG(id.FG)
	if !ok {
		return
	}
	part := map[SiteID]bool{}
	for _, s := range k.Partition() {
		part[s] = true
	}
	type tomb struct {
		dir  storage.FileID
		name string
	}
	var tombs []tomb
	seen := map[storage.FileID]bool{}
	for _, p := range d.Packs {
		if !part[p.Site] {
			continue
		}
		sums, err := k.ListInodesAt(p.Site, id.FG)
		if err != nil {
			continue
		}
		for _, s := range sums {
			if s.Deleted || !s.Type.IsDir() {
				continue
			}
			dirID := storage.FileID{FG: id.FG, Inode: s.Num}
			if seen[dirID] {
				continue
			}
			seen[dirID] = true
			_, content, err := k.FetchCopyFrom(p.Site, dirID)
			if err != nil {
				continue
			}
			dir, err := format.DecodeDir(content)
			if err != nil {
				continue
			}
			for _, e := range dir.Entries {
				if e.Inode != id.Inode {
					continue
				}
				if !e.Deleted {
					return // still linked; nothing to repair
				}
				tombs = append(tombs, tomb{dir: dirID, name: e.Name})
			}
		}
	}
	if len(tombs) == 0 {
		return
	}
	sort.Slice(tombs, func(i, j int) bool {
		if tombs[i].dir != tombs[j].dir {
			return tombs[i].dir.Inode < tombs[j].dir.Inode
		}
		return tombs[i].name < tombs[j].name
	})
	t := tombs[0]
	copies, err := r.fetchCopies(t.dir, r.storesOf(t.dir))
	if err != nil {
		return
	}
	best, _ := latestCopy(copies)
	dir, err := format.DecodeDir(copies[best].Content)
	if err != nil {
		return
	}
	name := t.name
	if e, ok := dir.LookupAny(name); ok && !e.Deleted && e.Inode != id.Inode {
		// The name was reused for a different file; bring the saved one
		// back under a conflict-style altered name and tell the owner.
		name = fmt.Sprintf("%s!i%d", t.name, id.Inode)
		r.queueMail(r.ownerOf(id), "locus-recovery",
			fmt.Sprintf("undone delete of %q in directory %v restored as %q: the name was reused", t.name, t.dir, name))
	}
	dir.Insert(name, id.Inode)
	if err := r.commitMerged(t.dir, copies, format.EncodeDir(dir), copies[best].Inode); err != nil {
		return
	}
}

// modifiedSinceDelete interrogates the file's current state across the
// partition: true when some live copy's vector is not dominated by the
// delete-time vector (i.e. an update happened the delete did not see).
func (r *Reconciler) modifiedSinceDelete(id storage.FileID, delVV vclock.VV) bool {
	for _, s := range r.k.ProbeAll(id) {
		if s.Deleted {
			continue
		}
		switch s.VV.Compare(delVV) {
		case vclock.Dominates, vclock.Concurrent:
			return true
		}
	}
	return false
}

// ownerOf looks up a file's owner for conflict mail.
func (r *Reconciler) ownerOf(id storage.FileID) string {
	for _, s := range r.k.Partition() {
		ino, _, err := r.k.FetchCopyFrom(s, id)
		if err == nil && ino != nil {
			if ino.Owner != "" {
				return ino.Owner
			}
		}
	}
	return "root"
}

// mergeMailboxes implements §4.5: mailboxes merge by unioning message
// records; tombstones win over live copies of the same ID, and globally
// unique message IDs make name conflicts impossible.
func (r *Reconciler) mergeMailboxes(id storage.FileID, copies []Copy, rep *Report) error {
	result := &format.Mailbox{}
	for i, c := range copies {
		mb, err := format.DecodeMailbox(c.Content)
		if err != nil {
			return fmt.Errorf("recon: mailbox %v copy at site %d: %w", id, copies[i].Site, err)
		}
		for _, msg := range mb.Messages {
			if existing := findMsg(result, msg.ID); existing != nil {
				if msg.Deleted && !existing.Deleted {
					result.PutRaw(msg)
				}
				continue
			}
			result.PutRaw(msg)
		}
	}
	if err := r.commitMerged(id, copies, format.EncodeMailbox(result), copies[0].Inode); err != nil {
		return err
	}
	rep.MailboxesMerged++
	return nil
}

func findMsg(m *format.Mailbox, id string) *format.Message {
	for i := range m.Messages {
		if m.Messages[i].ID == id {
			return &m.Messages[i]
		}
	}
	return nil
}
