package fs

// Read delegations: a re-open that sends no message.
//
// LOCUS routes every open and close through the CSS (§2.3.3), which the
// pinned protocol costs make explicit: 4 messages per open, 4 per
// close. Following the Lustre intent-lock design, the open request
// already carries the caller's intent (OpenMode), and the CSS answers a
// read open of a file with no writer recorded with a *read delegation*
// piggybacked on the reply: a VV-stamped grant letting the US re-open,
// read (through its page cache), and close the file locally — zero wire
// messages — for as long as the delegation is valid. The CSS records the
// delegate instead of a per-open reader entry, and the polled SS
// installs no reader serving state (committed pages are served
// statelessly anyway).
//
// A modify open recalls every delegation of the file in one *batched*
// round of fs.leaserevoke callbacks (one round per writer transition,
// however many delegates exist), before the writer proceeds. No
// delegation is granted while a writer is recorded; a read open then
// takes the paper's path.
//
// Failure handling reuses the existing reclaim machinery: a crashed
// holder loses its delegations with the rest of its volatile state and
// the CSS record self-heals on the next revoke round (a revoke that
// finds nothing is answered all the same); a partition change drops all
// delegations and delegate records on both sides, each site its own
// (CleanupAfterPartitionChange), exactly like lock-table records and
// with no message; a propagation notification whose VV dominates a
// delegation's stamp invalidates it.
//
// Delegations are the default. A cluster booted with
// Features.NoDelegations runs none, and every pinned message count of
// the paper's protocol is then reproduced exactly (protocolcost_test.go).

import (
	"slices"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// usLease is a read delegation held at the using site for one file.
type usLease struct {
	id  storage.FileID
	ss  SiteID // storage site the delegated opens read from
	css SiteID // grantor
	// ino is the committed inode local re-opens share, frozen like any
	// committed inode. Its version vector is the delegation's stamp: a
	// propagation notification carrying a dominating one invalidates
	// the delegation.
	ino *storage.Inode
}

// dropAllLeases discards every delegation this site holds, and the
// revocations that outran their grants (leaseDropped), and reports how
// many delegations it discarded: §5.6 partition cleanup's US side. It
// sends nothing, since each CSS's own cleanup discards its delegate
// records, as every site rebuilds its lock tables locally.
func (k *Kernel) dropAllLeases() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := len(k.leases)
	k.leases = make(map[storage.FileID]*usLease)
	k.leaseDropped = make(map[storage.FileID]bool)
	return n
}

// handleLeaseRevoke is the delegate side of a batched revoke round: it
// drops the read delegation. A revoke that finds none is remembered, so
// a grant still in flight to this site is declined when it arrives (the
// grant and the revoke travel on independent exchanges and may be
// reordered).
func (k *Kernel) handleLeaseRevoke(_ SiteID, req *leaseRevokeReq) (*netsim.Ack, error) {
	k.mu.Lock()
	if k.leases[req.ID] != nil {
		delete(k.leases, req.ID)
	} else {
		k.leaseDropped[req.ID] = true
	}
	k.mu.Unlock()
	return nil, nil
}

// revokeDelegates runs one batched revoke round over every read
// delegation of e except the opener's own (the opener discarded its
// local record before contacting the CSS, so its entry is just
// dropped). However many delegates exist, one writer transition
// triggers exactly one round. Unreachable delegates are dropped
// without an answer: a partitioned delegate reads stale committed data
// until its own partition-change cleanup fires, which LOCUS partition
// semantics already permit.
func (k *Kernel) revokeDelegates(id storage.FileID, e *cssEntry, except SiteID) {
	k.mu.Lock()
	var targets []SiteID
	for us := range e.delegates {
		if us != except {
			targets = append(targets, us)
		}
	}
	e.delegates = nil
	k.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	slices.Sort(targets)
	for _, us := range targets {
		req := &leaseRevokeReq{ID: id}
		netsim.CallAt(k.node, us, mLeaseRevoke, k.handleLeaseRevoke, req) //locus:vet-allow uncheckedcall unreachable delegates are reclaimed by partition cleanup
	}
	k.meter().AddLeasesRevoked(len(targets))
	k.meter().AddBatchedRevoke()
}

// recordLease installs the read delegation granted on f's open at the
// using site, on the inode the open found. The grant is declined when a
// revoke overtook it (leaseDropped).
func (k *Kernel) recordLease(f *File) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.leaseDropped[f.id] {
		delete(k.leaseDropped, f.id)
		return false
	}
	k.leases[f.id] = &usLease{id: f.id, ss: f.ss, css: f.css, ino: f.ino}
	return true
}

// openUnderLease serves a read open locally under a held delegation,
// with zero wire messages. It returns nil when the open must go to the
// CSS: no delegation, an internal open (which takes the unsynchronized
// path), or a modify open — in which case the delegation is discarded
// first, since the CSS drops its own record when the modify open
// arrives. expand is the open's openReq.Expand: under it a delegated
// hidden directory is the look (openID).
func (k *Kernel) openUnderLease(id storage.FileID, mode OpenMode, expand bool) (*File, *storage.Inode, SiteID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.leases[id]
	switch {
	case l == nil:
		return nil, nil, 0
	case expand && l.ino.Type == storage.TypeHiddenDir:
		return nil, l.ino, l.ss
	case mode == ModeModify:
		delete(k.leases, id)
		return nil, nil, 0
	case mode != ModeRead:
		return nil, nil, 0
	}
	f := &File{
		k: k, id: id, mode: mode, us: k.site, ss: l.ss, css: l.css,
		ino: l.ino, size: l.ino.Size, delegated: true,
	}
	k.registerOpenLocked(f)
	return f, nil, 0
}

// dropLeaseIfStale discards a read delegation whose stamp a newer
// committed version has overtaken (propagation notifications carry the
// new VV).
func (k *Kernel) dropLeaseIfStale(id storage.FileID, vv vclock.VV) {
	k.mu.Lock()
	if l := k.leases[id]; l != nil && vv.Compare(l.ino.VV) == vclock.Dominates {
		delete(k.leases, id)
	}
	k.mu.Unlock()
}

// Delegations reports the files this kernel holds read delegations for,
// with each delegation's stamp (fsck and tests).
func (k *Kernel) Delegations() map[storage.FileID]vclock.VV {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[storage.FileID]vclock.VV, len(k.leases))
	for id, l := range k.leases {
		out[id] = l.ino.VV
	}
	return out
}

// Delegates reports the read delegations this kernel has granted as
// CSS, per file (fsck and tests).
func (k *Kernel) Delegates() map[storage.FileID][]SiteID {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[storage.FileID][]SiteID)
	for id, e := range k.cssState {
		if len(e.delegates) == 0 {
			continue
		}
		out[id] = sortedSiteIDs(e.delegates)
	}
	return out
}
