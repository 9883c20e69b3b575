package fs

import (
	"cmp"
	"slices"

	"repro/internal/storage"
	"repro/internal/vclock"
)

// CleanupReport summarizes the actions the cleanup procedure took,
// mirroring the failure-action table of §5.6.
type CleanupReport struct {
	// ModifyOpensAborted counts US-side modify handles whose SS was
	// lost: "Discard pages, set error in local file descriptor".
	ModifyOpensAborted int
	// ReadOpensReopened counts read handles transparently switched to
	// another storage site holding the same version: "Internal close,
	// attempt to reopen at other site".
	ReadOpensReopened int
	// ReadOpensLost counts read handles with no substitute copy.
	ReadOpensLost int
	// ServesDiscarded counts SS-side serving states for lost using
	// sites: "Discard pages, close file and abort updates".
	ServesDiscarded int
	// LocksReleased counts CSS lock-table records for lost sites.
	LocksReleased int
	// LeasesReclaimed counts read delegations and delegate records
	// discarded by the conservative merge rule: after a partition change
	// the merged version vector may no longer support a delegation's
	// stamp, so every site discards all it holds and all it records.
	LeasesReclaimed int
}

// CleanupAfterPartitionChange installs a new partition view and runs
// the cleanup procedure of §5.6: every resource in use across a lost
// circuit is released or failed over, on both the local and remote
// sides, before normal operation resumes.
func (k *Kernel) CleanupAfterPartitionChange(newPartition []SiteID) CleanupReport {
	k.SetPartition(newPartition)
	in := make(map[SiteID]bool, len(newPartition))
	for _, s := range newPartition {
		in[s] = true
	}
	var rep CleanupReport

	// --- Read delegations: discard every one held (§5.6 applied to the
	// delegation table — delegations are reclaimed exactly like
	// lock-table records). Nothing is sent: each CSS's own cleanup,
	// below, discards its delegate records.
	rep.LeasesReclaimed = k.dropAllLeases()

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
			rep.ModifyOpensAborted++
		default: // ModeRead
			if k.reopenElsewhere(f) {
				rep.ReadOpensReopened++
			} else {
				k.mu.Lock()
				f.stale = true
				k.mu.Unlock()
				rep.ReadOpensLost++
			}
		}
	}

	// --- SS side: serving state for using sites that are gone.
	k.mu.Lock()
	type drop struct {
		id    storage.FileID
		pages []storage.PhysPage
	}
	var drops []drop
	for _, id := range sortedFileIDs(k.ssState) {
		sv := k.ssState[id]
		if sv.writerUS != vclock.NoSite && !in[sv.writerUS] {
			drops = append(drops, drop{id: id, pages: sv.dropWriter()})
			rep.ServesDiscarded++
		}
		for _, us := range sortedSiteIDs(sv.readers) {
			if !in[us] {
				delete(sv.readers, us)
				rep.ServesDiscarded++
			}
		}
		if sv.idle() {
			delete(k.ssState, id)
		}
	}

	// --- CSS side: rebuild the lock table. Entries for filegroups we
	// no longer synchronize are dropped; records naming lost sites are
	// released.
	for _, id := range sortedFileIDs(k.cssState) {
		e := k.cssState[id]
		css, err := k.cssOfLocked(id.FG)
		if err != nil || css != k.site {
			delete(k.cssState, id)
			continue
		}
		// Conservative merge rule, CSS side: all delegate records are
		// discarded (the in-partition holders discard their own copies
		// in their cleanup; out-of-partition holders cannot be revoked).
		if n := len(e.delegates); n > 0 {
			e.delegates = nil
			rep.LeasesReclaimed += n
		}
		if e.writerUS == vclock.NoSite && len(e.readers) == 0 {
			// No ongoing opens: drop the entry so the first open after
			// the change rebuilds it by polling the packs now in the
			// partition — the lock-table reconstruction of §5.6, which
			// is also what detects cross-partition version conflicts.
			delete(k.cssState, id)
			continue
		}
		// A writer whose site is gone, or whose storage site is (the
		// writer's own cleanup aborts its handle), is released.
		if e.writerUS != vclock.NoSite && !in[e.writerUS] || e.writerSS != vclock.NoSite && !in[e.writerSS] {
			k.releaseWriterLocked(e, e.writerUS, e.writerSerial)
			rep.LocksReleased++
		}
		for _, us := range sortedSiteIDs(e.readers) {
			if !in[us] || !in[e.readerSS[us]] {
				delete(e.readers, us)
				delete(e.readerSS, us)
				rep.LocksReleased++
			}
		}
	}
	k.writerFreed.Broadcast() // a waiter whose site is gone must fail
	k.mu.Unlock()

	for _, d := range drops {
		k.freeShadow(d.id.FG, d.pages)
	}
	return rep
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
// same version of the file for a read handle whose SS vanished ("If a
// process loses contact with a file it was reading remotely, the
// system will attempt to reopen a different copy of the same version"
// — §5.1).
func (k *Kernel) reopenElsewhere(f *File) bool {
	g, err := k.OpenID(f.id, ModeRead)
	if err != nil {
		return false
	}
	// Same version required: the paper substitutes only equal versions
	// for a continuing read.
	if !g.ino.VV.Equal(f.ino.VV) {
		g.Close() //locus:vet-allow uncheckedcall substitute rejected
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
