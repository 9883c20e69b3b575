package recon

import (
	"fmt"
	"slices"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// Manual conflict resolution (§4.6): "files with unresolved conflicts
// are marked so normal attempts to access them fail, although that
// control may be overridden. A trivial tool is provided by which the
// user may rename each version of the conflicted file and make each one
// a normal file again."

// Conflict describes one unresolved conflicted file visible from this
// site.
type Conflict struct {
	ID    storage.FileID
	Owner string
	Type  storage.FileType
	// Copies maps each pack site in the partition to its copy's
	// version vector.
	Copies map[SiteID]vclock.VV
}

// ListConflicts scans the filegroups this site stores for files marked
// in conflict and gathers the divergent vectors across the partition.
func (r *Reconciler) ListConflicts() []Conflict {
	k := r.k
	seen := map[storage.FileID]*Conflict{}
	for _, fg := range k.Store().Filegroups() {
		d, ok := k.Config().FG(fg)
		if !ok {
			continue
		}
		for _, p := range d.Packs {
			sums, err := k.ListInodesAt(p.Site, fg)
			if err != nil {
				continue
			}
			for _, s := range sums {
				if !s.Conflict {
					continue
				}
				id := storage.FileID{FG: fg, Inode: s.Num}
				c := seen[id]
				if c == nil {
					c = &Conflict{ID: id, Owner: s.Owner, Type: s.Type, Copies: map[SiteID]vclock.VV{}}
					seen[id] = c
				}
				c.Copies[p.Site] = s.VV
			}
		}
	}
	out := make([]Conflict, 0, len(seen))
	for _, c := range seen {
		out = append(out, *c)
	}
	slices.SortFunc(out, func(a, b Conflict) int { return a.ID.Compare(b.ID) })
	return out
}

// ResolveKeep resolves a conflict by declaring the copy at winner the
// surviving version; every pack converges to it with a vector
// dominating all copies.
func (r *Reconciler) ResolveKeep(id storage.FileID, winner SiteID) error {
	stores := r.storesOf(id)
	if len(stores) == 0 {
		return fmt.Errorf("recon: no copies of %v reachable", id)
	}
	copies, err := r.fetchCopies(id, stores)
	if err != nil {
		return err
	}
	var chosen *Copy
	for i := range copies {
		if copies[i].Site == winner {
			chosen = &copies[i]
		}
	}
	if chosen == nil {
		return fmt.Errorf("recon: site %d holds no copy of %v", winner, id)
	}
	if err := r.commitMerged(id, copies, chosen.Content, chosen.Inode); err != nil {
		return err
	}
	if !chosen.Inode.Deleted {
		// If the conflict involved a delete/update race, the surviving
		// file's directory entry may have converged to the tombstone;
		// restore the link.
		r.relinkResurrected(id)
	}
	return nil
}

// ResolveSplit resolves a conflict by materializing every divergent
// copy as an ordinary file named <path>!s<site>, then removing the
// conflicted original. The user can compare and merge with standard
// tools afterwards.
func (r *Reconciler) ResolveSplit(cred *fs.Cred, path string) ([]string, error) {
	k := r.k
	res, err := k.Resolve(cred, path)
	if err != nil {
		return nil, err
	}
	stores := r.storesOf(res.ID)
	copies, err := r.fetchCopies(res.ID, stores)
	if err != nil {
		return nil, err
	}
	// Materialize every divergent copy under an altered name.
	var names []string
	for _, c := range copies {
		name := fmt.Sprintf("%s!s%d", path, c.Site)
		f, err := k.Create(cred, name, c.Inode.Type, c.Inode.Mode)
		if err != nil {
			return names, err
		}
		if len(c.Content) > 0 {
			if err := f.WriteAll(c.Content); err != nil {
				f.Close() //locus:vet-allow uncheckedcall abandoning
				return names, err
			}
		}
		if err := f.Close(); err != nil {
			return names, err
		}
		names = append(names, name)
	}
	// Clear the conflict by installing one copy as a dominating normal
	// version, then remove the original through the ordinary unlink
	// path.
	if err := r.ResolveKeep(res.ID, copies[0].Site); err != nil {
		return names, err
	}
	if err := k.Unlink(cred, path); err != nil {
		return names, err
	}
	return names, nil
}

// storesOf lists the pack sites in the partition holding a live copy.
func (r *Reconciler) storesOf(id storage.FileID) []SiteID {
	var out []SiteID
	for _, s := range r.k.ProbeAll(id) {
		if !s.Deleted {
			out = append(out, s.Site)
		}
	}
	return out
}
