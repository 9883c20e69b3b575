package fs

// Lease/intent layer: collapse the per-open CSS round trip.
//
// LOCUS routes every open and close through the CSS (§2.3.3), which the
// pinned protocol costs make explicit: 4 messages per open, 4 per
// close. That is the scaling bottleneck for hot files. Following the
// Lustre intent-lock design, the open request already carries the
// caller's intent (OpenMode), and the CSS reply piggybacks a lease:
//
//   - A read open with no writer present is answered with a *read
//     delegation*: a VV-stamped grant letting the US re-open, read
//     (through its page cache), and close the file locally — zero wire
//     messages — for as long as the delegation is valid. The CSS
//     records the delegate instead of a per-open reader entry, and the
//     polled SS installs no reader serving state (committed pages are
//     served statelessly anyway).
//
//   - A modify open is answered with an exclusive *writer lease*: the
//     close commits as usual but skips the 4-message close protocol,
//     leaving the SS serving state and the CSS writer slot in place so
//     the next local modify open costs zero wire messages.
//
// Revocation rides the ordinary at-most-once call path. A modify open
// recalls all read delegations in one *batched* round of fs.leaserevoke
// callbacks (one round per writer transition, however many delegates
// exist). A writer lease is not recalled as a lease at all: it keeps a
// writer registration (US, serial) alive, and any open that meets that
// registration recalls it by name with fs.recallwriter (lockvalid.go),
// the same exchange that reclaims a registration whose close was lost.
// An idle registration comes back with its lease and the holder's
// committed VV — the lease-layer analogue of the close protocol's VV
// piggyback, folded into the lock table before the conflicting open
// proceeds. A live one is refused and marked: it serves no further
// modify open, and when its last handle closes the lease performs its
// deferred close (giveBackRecalled), for the open that may be waiting.
//
// Failure handling reuses the existing reclaim machinery: a crashed
// holder loses its lease table with the rest of its volatile state and
// the CSS record self-heals on the next recall (no lease, no live
// handle → released); partition changes drop all leases and delegate
// records on both sides (CleanupAfterPartitionChange), exactly like
// lock-table records; a propagation notification whose VV dominates a
// delegation's stamp invalidates it.
//
// The layer is strictly opt-in (Features.Leases): without it every
// pinned message count of the paper's protocol is reproduced exactly
// (protocolcost_test.go re-pins this).

import (
	"slices"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// usLease is a lease held at the using site: a read delegation or a
// writer lease for one file.
type usLease struct {
	id   storage.FileID
	mode OpenMode // ModeRead: read delegation; ModeModify: writer lease
	// vv is the committed version the lease serves locally: the grant
	// stamp for a delegation, refreshed at each close for a writer
	// lease.
	vv    vclock.VV
	sites []SiteID
	ss    SiteID // storage site serving opens under this lease
	css   SiteID // grantor
	// ino is the committed inode snapshot local re-opens are built from,
	// frozen like any committed inode: a read re-open shares it, a modify
	// re-open takes a Clone.
	ino *storage.Inode
	// wserial is the writer registration a writer lease keeps alive at
	// the SS and CSS: the serial of the open it was granted on.
	wserial uint64
}

// releaseAllLeases returns every lease this site holds, in file-id
// order, and reports how many: SetFeatures switching the layer off, and
// partition cleanup, which also forgets the revocations that outran
// their grants (forgetDropped).
func (k *Kernel) releaseAllLeases(forgetDropped bool) int {
	k.mu.Lock()
	drop := make([]*usLease, 0, len(k.leases))
	for _, l := range k.leases {
		drop = append(drop, l)
	}
	k.leases = make(map[storage.FileID]*usLease)
	if forgetDropped {
		k.leaseDropped = make(map[storage.FileID]bool)
	}
	k.mu.Unlock()
	slices.SortFunc(drop, func(a, b *usLease) int { return a.id.Compare(b.id) })
	for _, l := range drop {
		k.releaseLease(l)
	}
	return len(drop)
}

// releaseLease voluntarily returns one lease. A read delegation is
// returned to the CSS with fs.leaserelease; a writer lease performs
// the deferred legacy close (which carries the committed VV to the CSS
// exactly like any close) — unless its registration is still live, in
// which case the live handle's own close will run the legacy protocol
// now that the lease record is gone.
func (k *Kernel) releaseLease(l *usLease) {
	if l.mode == ModeModify {
		k.mu.Lock()
		live := k.writerLiveLocked(l.id, l.wserial)
		k.mu.Unlock()
		if live {
			return
		}
		req := &closeReq{ID: l.id, US: k.site, Mode: ModeModify, Serial: l.wserial}
		netsim.CallAt(k.node, l.ss, mClose, k.handleClose, req) //locus:vet-allow uncheckedcall best-effort deferred close; partition cleanup reclaims on failure
		return
	}
	req := &leaseReleaseReq{ID: l.id, US: k.site}
	netsim.CallAt(k.node, l.css, mLeaseRelease, k.handleLeaseRelease, req) //locus:vet-allow uncheckedcall best-effort return; the CSS record self-heals on its next revoke round
}

// handleLeaseRelease is the CSS side of a voluntary delegation return.
func (k *Kernel) handleLeaseRelease(_ SiteID, req *leaseReleaseReq) (*netsim.Ack, error) {
	k.mu.Lock()
	if e := k.cssState[req.ID]; e != nil {
		delete(e.delegates, req.US)
	}
	k.mu.Unlock()
	return nil, nil
}

// handleLeaseRevoke is the delegate side of a batched revoke round: it
// drops the read delegation. A revoke that finds none is remembered, so
// a grant still in flight to this site is declined when it arrives (the
// grant and the revoke travel on independent exchanges and may be
// reordered).
func (k *Kernel) handleLeaseRevoke(_ SiteID, req *leaseRevokeReq) (*netsim.Ack, error) {
	k.mu.Lock()
	if l := k.leases[req.ID]; l != nil && l.mode == ModeRead {
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

// recordLease installs the lease granted on f's open at the using
// site. The grant is declined when the layer was switched off while
// the open was in flight, when a revoke overtook the grant
// (leaseDropped), or when a recall met the writer registration in
// flight (recalledSerials): its slot is wanted back at close.
func (k *Kernel) recordLease(f *File, g *leaseGrant) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if !k.Features().Leases || k.leaseDropped[f.id] || f.mode == ModeModify && k.recalledSerials[f.wserial] {
		delete(k.leaseDropped, f.id)
		return false
	}
	ino := f.ino
	if f.mode == ModeModify {
		ino = ino.Clone() // the handle goes on changing its own
	}
	k.leases[f.id] = &usLease{
		id:      f.id,
		mode:    f.mode,
		vv:      g.VV,
		sites:   append([]SiteID(nil), g.Sites...),
		ss:      f.ss,
		css:     f.css,
		ino:     ino,
		wserial: f.wserial,
	}
	return true
}

// openUnderLease serves an open locally under a held lease, with zero
// wire messages: any mode under this site's writer lease, read mode
// under a read delegation. It returns nil when the open must go to the
// CSS (no lease, layer off, a modify open under a writer lease a recall
// asked back, or a delegation being upgraded to modify — in which case
// the delegation is discarded first, since the CSS will drop its record
// when the modify open arrives). expand is the open's openReq.Expand:
// under it a leased hidden directory is the look (openID).
func (k *Kernel) openUnderLease(id storage.FileID, mode OpenMode, expand bool) (*File, *storage.Inode, SiteID) {
	if !k.Features().Leases {
		return nil, nil, 0
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.leases[id]
	switch {
	case l == nil:
		return nil, nil, 0
	case expand && l.ino.Type == storage.TypeHiddenDir:
		return nil, l.ino, l.ss
	case l.mode == ModeRead && mode == ModeModify:
		// Upgrade: the delegation cannot serve a writer. Drop it; the
		// CSS drops its own record as part of granting the writer.
		delete(k.leases, id)
		return nil, nil, 0
	case mode != ModeRead && mode != ModeModify:
		return nil, nil, 0 // internal opens take the unsynchronized path
	case mode == ModeModify && (l.mode != ModeModify || k.recalledSerials[l.wserial]):
		return nil, nil, 0
	}
	f := &File{
		k: k, id: id, mode: mode, us: k.site, ss: l.ss, css: l.css,
		ino: l.ino, size: l.ino.Size,
	}
	if mode == ModeModify {
		f.ino, f.dirty = l.ino.Clone(), make(map[storage.PageNo]bool)
		f.leased = true
		f.wserial = l.wserial
	} else {
		f.delegated = true
	}
	k.registerOpenLocked(f)
	return f, nil, 0
}

// closeUnderLease finishes the close of a handle that was opened under
// a lease (delegated reader or leased writer) with zero wire messages.
// It reports false when the lease is gone — revoked or released while
// the handle was open — and the caller must fall back to the legacy
// close protocol so the serving state is actually torn down.
func (k *Kernel) closeUnderLease(f *File) bool {
	if f.delegated {
		// A delegated reader holds no serving state and no CSS lock
		// entry: its close is pure local bookkeeping even if the lease
		// was revoked while it read its frozen snapshot.
		return true
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.leases[f.id]
	if l == nil || l.mode != ModeModify {
		return false
	}
	// Refresh the snapshot the next local open is built from: the
	// handle committed before closing, so f.ino carries the newest
	// committed version.
	l.ino = f.ino.Clone()
	l.vv = f.ino.VV
	return true
}

// dropLeaseIfStale discards a read delegation whose stamp a newer
// committed version has overtaken (propagation notifications carry the
// new VV). Writer leases are not dropped here: the writer itself is
// the source of new versions.
func (k *Kernel) dropLeaseIfStale(id storage.FileID, vv vclock.VV) {
	k.mu.Lock()
	if l := k.leases[id]; l != nil && l.mode == ModeRead && vv.Compare(l.vv) == vclock.Dominates {
		delete(k.leases, id)
	}
	k.mu.Unlock()
}

// Leases reports the files this kernel currently holds leases for
// (fsck and tests).
func (k *Kernel) Leases() map[storage.FileID]OpenMode {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make(map[storage.FileID]OpenMode, len(k.leases))
	for id, l := range k.leases {
		out[id] = l.mode
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
