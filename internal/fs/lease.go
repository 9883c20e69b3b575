package fs

// Read delegations: a re-open, or a look, that sends no message.
//
// LOCUS routes every open and close through the CSS (§2.3.3), which the
// pinned protocol costs make explicit: 4 messages per open, 4 per
// close. Following the Lustre intent-lock design, the open request
// already carries the caller's intent (OpenMode), and the CSS answers a
// read open of a file with no writer recorded with a *read delegation*
// piggybacked on the reply: a VV-stamped grant letting the US re-open,
// read (through its page cache), and close the file locally — zero wire
// messages — for as long as the delegation is valid. The CSS records the
// delegate; the polled SS, as for every read open, checks its copy and
// records nothing (committed pages are served with no per-open record).
//
// A directory that the looking site stores no copy of is delegated the
// same way on the internal open of pathname search (§2.3.4): the CSS
// answers the look's exchange with a grant, and the site's later looks
// at the directory (lookInternal, freeLook) are answered from the
// delegation, so a search through delegated directories sends nothing.
// A site that stores a copy looks at it locally and is granted nothing
// on a look.
//
// A modify open recalls every delegation of the file in one *batched*
// round of fs.leaserevoke callbacks (one round per writer transition,
// however many delegates exist), before the writer proceeds. No
// delegation is granted while a writer is recorded; a read open then
// takes the paper's path. Every commit of a directory is made under
// such an open at the CSS, so the round runs before it. Two delegates
// are not called back: the opener, and the site whose fs.dirop or
// fs.create the CSS serves (openReq.For), whose record is dropped on
// every file the operation changes. Each gives up its delegations on
// those files itself, before it sends the request (dropOwnLeases).
//
// A grant travels on a reply while the CSS may drop the record it made:
// a revoke round, the grantee's own modify open or namespace operation,
// partition cleanup, a crash of the grantee. One per-site counter, the
// lease epoch, covers them all: it moves whenever a CSS may have dropped
// this site's delegate record without the site seeing its delegation go
// (handleLeaseRevoke, endOwnOp, dropAllLeases, crashLocal). A request
// that may bring a grant reads it before it leaves, and recordLease
// installs the grant only if it has not moved since and no operation of
// the site's own is in flight (inflightSerials), whose CSS may drop the
// record of a grant made meanwhile. A declined grant is safe: the CSS
// keeps a record with nothing behind it, which a later revoke drops.
//
// A revoke that does not reach its delegate while the delegate is still
// reachable (every transmission lost) refuses the modify open with
// ErrBusy and keeps the delegate on record, so that the next modify
// open calls it back again: a delegate that stores no copy would
// otherwise read the old version for good, since no propagation
// notification ever reaches it. An unreachable delegate is dropped: it
// crashed, and lost its delegations with its other volatile state, or
// its partition's change runs cleanup on its side.
//
// Failure handling otherwise reuses the existing reclaim machinery: the
// CSS record of a crashed holder self-heals on the next revoke round (a
// revoke that finds nothing is answered all the same); a partition
// change drops all delegations and delegate records on both sides, each
// site its own (CleanupAfterPartitionChange), exactly like lock-table
// records and with no message; a propagation notification whose VV
// dominates a delegation's stamp invalidates it; a read that the network
// cuts through a delegated look drops the delegation before it looks
// again (readDirByID).
//
// Delegations are the default. A cluster booted with
// Features.NoDelegations runs none, and every pinned message count of
// the paper's protocol is then reproduced exactly (protocolcost_test.go).

import (
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// usLease is a read delegation held at the using site for one file.
type usLease struct {
	ss  SiteID // storage site the delegated opens read from
	css SiteID // grantor
	// ino is the committed inode local re-opens share, frozen like any
	// committed inode. Its version vector is the delegation's stamp: a
	// propagation notification carrying a dominating one invalidates
	// the delegation.
	ino *storage.Inode
}

// dropAllLeases discards every delegation this site holds, and declines
// every grant in flight (leaseEpoch): §5.6 partition cleanup's US side.
// It sends nothing, since each CSS's own cleanup discards its delegate
// records, as every site rebuilds its lock tables locally.
func (k *Kernel) dropAllLeases() {
	k.mu.Lock()
	k.leases = make(map[storage.FileID]*usLease)
	k.leaseEpoch++
	k.mu.Unlock()
}

// handleLeaseRevoke is the delegate side of a batched revoke round: it
// drops the read delegation and declines every grant in flight, since
// the CSS has dropped its record whether or not the revoke found the
// delegation (a grant and the revoke travel on independent exchanges
// and may be reordered).
func (k *Kernel) handleLeaseRevoke(_ SiteID, req *leaseRevokeReq) (*netsim.Ack, error) {
	k.mu.Lock()
	delete(k.leases, req.ID)
	k.leaseEpoch++
	k.mu.Unlock()
	return nil, nil
}

// revokeDelegates runs one batched revoke round over every read
// delegation of e but two, which are just dropped from the record: the
// opener's own (us), and that of the site whose namespace operation the
// open serves (forSite), which each discards itself (dropOwnLeases).
// However many delegates exist, one writer transition triggers exactly
// one round. A delegate the round does not reach is dropped when the
// network finds it unreachable (down, or in another partition), which
// leaves it to crash recovery or partition cleanup; one that may still
// be up and connected, its revoke lost or its circuit closed, stays on
// record, and the round fails with ErrBusy: the open must not proceed
// while that delegate may read the version it is about to replace.
// leases_revoked counts the delegations the round took off the record.
func (k *Kernel) revokeDelegates(id storage.FileID, e *cssEntry, us, forSite SiteID) error {
	k.mu.Lock()
	var targets []SiteID
	for s := range e.delegates {
		if s != us && s != forSite {
			targets = append(targets, s)
		}
	}
	e.delegates = nil
	k.mu.Unlock()
	if len(targets) == 0 {
		return nil
	}
	slices.Sort(targets)
	var lost error
	revoked := 0
	for _, s := range targets {
		_, err := netsim.CallAt(k.node, s, mLeaseRevoke, k.handleLeaseRevoke, &leaseRevokeReq{ID: id})
		// handleLeaseRevoke never fails: an error is the transport's own.
		if ne, ok := err.(*netsim.Error); err == nil || ok && ne.Err == netsim.ErrUnreachable {
			revoked++
			continue
		}
		k.mu.Lock()
		if e.delegates == nil {
			e.delegates = make(map[SiteID]bool)
		}
		e.delegates[s] = true
		k.mu.Unlock()
		if lost == nil {
			lost = fmt.Errorf("%w: %v: revoking site %d's delegation: %w", ErrBusy, id, s, err)
		}
	}
	k.meter().AddLeasesRevoked(revoked)
	k.meter().AddBatchedRevoke()
	return lost
}

// grantEpoch is the lease epoch a request that may bring a grant reads
// before it leaves, for its recordLease.
func (k *Kernel) grantEpoch() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.leaseEpoch
}

// recordLease installs a read delegation granted on a reply from css:
// of the file id, stored at ss, at the committed inode ino, to a request
// sent at the lease epoch epoch. The grant is declined when the epoch
// has moved since, or while an operation of this site's own is in flight
// (inflightSerials): the CSS may have dropped its record of it.
func (k *Kernel) recordLease(id storage.FileID, ss, css SiteID, ino *storage.Inode, epoch uint64) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.leaseEpoch != epoch || len(k.inflightSerials) > 0 {
		return false
	}
	k.leases[id] = &usLease{ss: ss, css: css, ino: ino}
	return true
}

// leaseLook is the look at id that a held read delegation answers, with
// no message: the delegation's inode and storage site, or a nil inode.
func (k *Kernel) leaseLook(id storage.FileID) (*storage.Inode, SiteID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if l := k.leases[id]; l != nil {
		return l.ino, l.ss
	}
	return nil, 0
}

// dropLease discards the read delegation of id, if one is held, and
// reports whether one was.
func (k *Kernel) dropLease(id storage.FileID) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, held := k.leases[id]
	delete(k.leases, id)
	return held
}

// dropOwnLeases begins a modify open, fs.dirop or fs.create of this
// site's own, whose CSS drops the site's delegate records on the files
// ids without a revoke (revokeDelegates): it discards the site's
// delegations on them and returns the serial it marks in flight
// (inflightSerials), which names the operation's writer registration,
// if it makes one. Every grant is declined until endOwnOp, once the
// request is answered, moves the lease epoch.
func (k *Kernel) dropOwnLeases(ids ...storage.FileID) uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, id := range ids {
		delete(k.leases, id)
	}
	k.openSerial++
	k.inflightSerials[k.openSerial] = true
	return k.openSerial
}

// endOwnOp ends the operation dropOwnLeases began under serial,
// declining every grant still in flight, which the CSS may have made
// before it dropped the records.
func (k *Kernel) endOwnOp(serial uint64) {
	k.mu.Lock()
	delete(k.inflightSerials, serial)
	k.leaseEpoch++
	k.mu.Unlock()
}

// openUnderLease serves a read open locally under a held delegation,
// with zero wire messages. It returns nil when the open must go to the
// CSS: no delegation, or an open that is not for reading (a modify open
// gives the delegation up itself, openID). expand is the open's
// openReq.Expand: under it a delegated hidden directory is the look
// (openID).
func (k *Kernel) openUnderLease(id storage.FileID, mode OpenMode, expand bool) (*File, *storage.Inode, SiteID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.leases[id]
	switch {
	case l == nil:
		return nil, nil, 0
	case expand && l.ino.Type == storage.TypeHiddenDir:
		return nil, l.ino, l.ss
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
