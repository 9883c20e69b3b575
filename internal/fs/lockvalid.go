package fs

// On-demand lock-table validation. The cleanup procedure of §5.6
// reclaims synchronization records when the partition changes, but a
// close whose messages are lost to the network (without any topology
// change) strands a writer record that no partition protocol will ever
// examine: the holder is still "up", so CleanupAfterPartitionChange
// keeps its lock forever and every later open for modification is
// refused. The validation here applies the paper's lock-table
// reconstruction idea at the moment it matters: when an open meets a
// recorded writer, the CSS (or SS) recalls that writer registration by
// its name, (US, serial). The using site refuses while the registration
// is live, and then gives the slot back when it ends, for the open that
// may be waiting (a directory's, whose slot only a kernel update holds);
// otherwise it gives back the writer lease that kept the registration
// alive, if it holds one, and the record is reclaimed, revoking any
// serving state left at the storage site.

import (
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// writerLiveLocked reports whether this site's writer registration
// serial for id is live: its open is still in flight (the CSS granted
// it but the reply has not been recorded yet), or a modify handle
// carrying it is open. Stale handles do not count — their close sends
// no messages, so nothing will ever release a lock recorded for them.
// Caller holds k.mu.
func (k *Kernel) writerLiveLocked(id storage.FileID, serial uint64) bool {
	if k.inflightSerials[serial] {
		return true
	}
	for f := range k.openFiles {
		if f.id == id && f.wserial == serial && f.mode == ModeModify && !f.closed && !f.stale {
			return true
		}
	}
	return false
}

// handleRecallWriter is the using site's side of a recall: refuse while
// the named registration is live, and mark it to give its slot back
// when it ends; otherwise give back the writer lease that keeps it
// alive (if this site holds one) and report the committed version.
func (k *Kernel) handleRecallWriter(_ SiteID, req *recallWriterReq) (*recallWriterResp, error) {
	k.mu.Lock()
	if k.writerLiveLocked(req.ID, req.Serial) {
		k.recalledSerials[req.Serial] = true
		k.mu.Unlock()
		return &recallWriterResp{Live: true}, nil
	}
	l := k.takeWriterLeaseLocked(req.ID, req.Serial)
	k.mu.Unlock()

	// Both site lists are read-only from here on; the CSS absorbs a copy.
	resp := &recallWriterResp{}
	if l != nil {
		resp.VV, resp.Sites = l.vv, l.sites
	} else if r := k.localGetVV(req.ID); r.Has {
		resp.VV, resp.Sites = r.VV, r.Sites
	}
	return resp, nil
}

// takeWriterLeaseLocked removes and returns the writer lease that keeps
// this site's registration (id, serial), if it holds one, counting it
// revoked. Caller holds k.mu.
func (k *Kernel) takeWriterLeaseLocked(id storage.FileID, serial uint64) *usLease {
	l := k.leases[id]
	if l == nil || l.mode != ModeModify || l.wserial != serial {
		return nil
	}
	delete(k.leases, id)
	k.meter().AddLeasesRevoked(1)
	return l
}

// recallWriter validates the writer registration (holder, serial)
// recorded against id, on behalf of an open that meets it. It returns
// gone when the registration is gone: the holder's committed version
// has been folded into e (the CSS's entry; nil at a storage site) and
// the serving state the registration left at ss has been revoked, so
// the caller may reclaim its record; live when the holder answered that
// the registration is live. An unreachable holder is neither: we cannot
// tell a lost close from a slow one, so the lock is kept and the
// partition protocol decides when the topology changes.
func (k *Kernel) recallWriter(id storage.FileID, e *cssEntry, holder SiteID, serial uint64, ss SiteID) (gone, live bool) {
	resp, err := netsim.CallAt(k.node, holder, mRecallWriter, k.handleRecallWriter,
		&recallWriterReq{ID: id, Serial: serial})
	if err != nil || resp.Live {
		return false, err == nil
	}
	if e != nil {
		k.mu.Lock()
		e.absorb(resp.VV, resp.Sites)
		k.mu.Unlock()
	}
	if ss != vclock.NoSite {
		// Best effort: if the revoke is lost too, the SS validates the
		// writer itself on the next modify open (setupServe).
		netsim.CallAt(k.node, ss, mRevokeServe, k.handleRevokeServe, &revokeServeReq{ID: id, US: holder, Serial: serial}) //locus:vet-allow uncheckedcall best-effort revoke: an unreachable SS is reclaimed by the partition protocol
	}
	return true, false
}

// giveBackRecalled ends this site's writer registration (id, serial)
// once nothing holds it live: its last modify handle has closed, or its
// open failed. If a recall found it live, an open may be waiting at the
// CSS for its slot, and what would release the slot may not have run:
// a writer lease skips the close protocol, a failed commit or open
// skips it, and any of its messages can be lost. So the writer lease
// that keeps the registration, if any, performs its deferred close, and
// the CSS is then told directly (releaseCSSLock).
func (k *Kernel) giveBackRecalled(css SiteID, id storage.FileID, serial uint64) {
	k.mu.Lock()
	if !k.recalledSerials[serial] {
		k.mu.Unlock()
		return
	}
	if k.writerLiveLocked(id, serial) {
		k.mu.Unlock()
		return
	}
	delete(k.recalledSerials, serial)
	l := k.takeWriterLeaseLocked(id, serial)
	k.mu.Unlock()
	if l != nil {
		k.releaseLease(l)
	}
	k.releaseCSSLock(css, id, ModeModify, serial)
}

// handleRevokeServe discards SS serving state for a writer registration
// a recall found gone: uncommitted shadow pages are freed and the
// writer slot cleared, exactly as handleClose would have done had the
// close arrived. The recall ran unlocked, so by now the registration
// may have closed normally and the same site opened again; the serial
// is what keeps the revoke off that successor.
func (k *Kernel) handleRevokeServe(_ SiteID, req *revokeServeReq) (*netsim.Ack, error) {
	k.mu.Lock()
	sv := k.ssState[req.ID]
	var freed []storage.PhysPage
	if sv != nil && sv.writerUS == req.US && sv.writerSerial == req.Serial {
		freed = sv.dropWriter()
		if sv.idle() {
			delete(k.ssState, req.ID)
		}
	}
	k.mu.Unlock()
	k.freeShadow(req.ID.FG, freed)
	return nil, nil
}
