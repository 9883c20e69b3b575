package fs

import (
	"cmp"
	"slices"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// CleanupAfterPartitionChange installs a new partition view and runs
// the cleanup procedure of §5.6: every resource in use across a lost
// circuit is released or failed over, on both the local and remote
// sides, before normal operation resumes.
func (k *Kernel) CleanupAfterPartitionChange(newPartition []SiteID) {
	k.SetPartition(newPartition)
	in := make(map[SiteID]bool, len(newPartition))
	for _, s := range newPartition {
		in[s] = true
	}

	// --- Read delegations: discard every one held (§5.6 applied to the
	// delegation table — delegations are reclaimed exactly like
	// lock-table records). Nothing is sent: each CSS's own cleanup,
	// below, discards its delegate records.
	k.dropAllLeases()

	// --- US side: open files whose storage site left the partition.
	// The failover order is part of the deterministic replay schedule
	// (reopenElsewhere sends on the wire), so iterate handles in
	// (file, registration) order, never raw map order.
	k.mu.Lock()
	var affected []*File
	for f := range k.openFiles {
		if !in[f.ss] && f.ss != k.site {
			affected = append(affected, f)
		}
	}
	k.mu.Unlock()
	slices.SortFunc(affected, func(a, b *File) int {
		if c := a.id.Compare(b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.serial, b.serial)
	})
	for _, f := range affected {
		switch {
		case f.internal:
			// Internal opens hold no remote state; nothing to do.
		case f.mode == ModeModify:
			// Updates in progress are lost with the storage site.
			k.mu.Lock()
			f.stale = true
			clear(f.dirty)
			k.mu.Unlock()
		default: // ModeRead
			k.reopenElsewhere(f)
		}
	}

	// --- SS side: the sessions of writers whose sites are gone.
	k.mu.Lock()
	type drop struct {
		id    storage.FileID
		pages []storage.PhysPage
	}
	var drops []drop
	for _, id := range sortedFileIDs(k.ssState) {
		if sv := k.ssState[id]; !in[sv.writerUS] {
			drops = append(drops, drop{id: id, pages: k.dropWriterLocked(sv)})
		}
	}

	// --- CSS side: rebuild the lock table. Entries for filegroups we
	// no longer synchronize are dropped, and so is every entry that
	// records no writer: the first open after the change rebuilds it by
	// polling the packs now in the partition — the lock-table
	// reconstruction of §5.6, which is also what detects
	// cross-partition version conflicts. Every delegate record goes
	// (the conservative merge rule: the in-partition holders discard
	// their own delegations in their cleanup; out-of-partition holders
	// cannot be revoked).
	for _, id := range sortedFileIDs(k.cssState) {
		e := k.cssState[id]
		css, err := k.cssOfLocked(id.FG)
		if err != nil || css != k.site || e.writerUS == vclock.NoSite {
			delete(k.cssState, id)
			continue
		}
		e.delegates = nil
		// A writer whose site is gone, or whose storage site is (the
		// writer's own cleanup aborts its handle), is released.
		if !in[e.writerUS] || e.writerSS != vclock.NoSite && !in[e.writerSS] {
			k.releaseWriterLocked(e, e.writerUS, e.writerSerial)
		}
	}
	k.writerFreed.Broadcast() // a waiter whose site is gone must fail
	k.mu.Unlock()

	for _, d := range drops {
		k.freeShadow(d.id.FG, d.pages)
	}
}

// sortedFileIDs returns m's keys in (filegroup, inode) order so state
// sweeps act in a seed-replayable order.
func sortedFileIDs[V any](m map[storage.FileID]V) []storage.FileID {
	ids := make([]storage.FileID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, storage.FileID.Compare)
	return ids
}

// sortedSiteIDs returns m's keys in ascending site order.
func sortedSiteIDs[V any](m map[SiteID]V) []SiteID {
	sites := make([]SiteID, 0, len(m))
	for s := range m {
		sites = append(sites, s)
	}
	slices.Sort(sites)
	return sites
}

// reopenElsewhere tries to substitute another storage site holding the
// same version of the file for a read handle whose SS vanished or
// dropped its copy ("If a process loses contact with a file it was
// reading remotely, the system will attempt to reopen a different copy
// of the same version" — §5.1). A handle it cannot substitute is marked
// stale ("set error in local file descriptor" — §5.6), and it reports
// false.
func (k *Kernel) reopenElsewhere(f *File) bool {
	g, err := k.OpenID(f.id, ModeRead)
	// Same version required: the paper substitutes only equal versions
	// for a continuing read.
	if err != nil || !g.ino.VV.Equal(f.ino.VV) {
		if err == nil {
			g.Close() //locus:vet-allow uncheckedcall substitute rejected
		}
		k.mu.Lock()
		f.stale = true
		k.mu.Unlock()
		return false
	}
	f.ss, f.ino, f.size = g.ss, g.ino, g.size
	// Transfer the registration made by g to f and retire g silently.
	k.mu.Lock()
	delete(k.openFiles, g)
	g.closed = true
	k.mu.Unlock()
	return true
}
