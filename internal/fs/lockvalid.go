package fs

// On-demand lock-table validation. The cleanup procedure of §5.6
// reclaims synchronization records when the partition changes, but a
// close whose messages are lost to the network (without any topology
// change) strands a writer record that no partition protocol will ever
// examine: the holder is still "up", so CleanupAfterPartitionChange
// keeps its lock forever and every later open for modification is
// refused. The validation here applies the paper's lock-table
// reconstruction idea at the moment it matters: when an open is
// refused because of a recorded writer, the CSS (or SS) interrogates
// the recorded holder; if the holder has no live — or in-flight —
// modify handle for the file, the record is stale and is reclaimed,
// revoking any serving state left at the storage site.

import (
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// handleProbeOpen answers a lock-table validation probe at the using
// site: does a live (or in-flight) modify handle for the file exist
// here? Stale handles do not count — their close sends no messages, so
// nothing will ever release a lock recorded for them.
func (k *Kernel) handleProbeOpen(_ SiteID, req *probeOpenReq) (*probeOpenResp, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	floor := 0
	if req.SelfProbe {
		floor = 1 // the probing open's own in-flight record
	}
	if k.inflightOpens[req.ID] > floor {
		return &probeOpenResp{Open: true}, nil
	}
	for f := range k.openFiles {
		if f.id == req.ID && f.mode == ModeModify && !f.closed && !f.stale {
			return &probeOpenResp{Open: true}, nil
		}
	}
	// A held writer lease is a live claim on the writer slot even with
	// no handle open: the legacy probe must not reclaim it (the lease
	// layer's own revocation callback is the way to take it back).
	if l := k.leases[req.ID]; l != nil && l.mode == ModeModify {
		return &probeOpenResp{Open: true}, nil
	}
	return &probeOpenResp{Open: false}, nil
}

// handleRevokeServe discards SS serving state for a writer whose
// handle the CSS has validated as gone.
func (k *Kernel) handleRevokeServe(_ SiteID, req *revokeServeReq) (*netsim.Ack, error) {
	k.revokeServeLocal(req.ID, req.US, req.Serial)
	return nil, nil
}

// revokeServeLocal reclaims local serving state held for a vanished
// writer registration: uncommitted shadow pages are freed and the
// writer slot cleared, exactly as handleClose would have done had the
// close arrived. The validation that led here ran unlocked, so by now
// the registration may have closed normally and the same site opened
// again; the serial is what keeps the revoke off that successor.
func (k *Kernel) revokeServeLocal(id storage.FileID, us SiteID, serial uint64) {
	k.mu.Lock()
	sv := k.ssState[id]
	var freed []storage.PhysPage
	if sv != nil && sv.writerUS == us && sv.writerSerial == serial {
		freed = sv.dropWriter()
		if sv.idle() {
			delete(k.ssState, id)
		}
	}
	k.mu.Unlock()
	k.freeShadow(id.FG, freed)
}

// probeWriterOpen asks the recorded holder whether its modify handle
// still exists. An unreachable holder counts as still open: we cannot
// tell a lost close from a slow one, so the lock is kept and the
// partition protocol decides when the topology actually changes.
func (k *Kernel) probeWriterOpen(id storage.FileID, holder SiteID, selfProbe bool) bool {
	resp, err := netsim.CallAt(k.node, holder, mProbeOpen, k.handleProbeOpen,
		&probeOpenReq{ID: id, SelfProbe: selfProbe})
	if err != nil {
		return true
	}
	return resp.Open
}

// writerVanished validates a refused open at the CSS: true when the
// recorded writer's handle is gone, in which case any serving state the
// registration (holder, serial) left at the recorded storage site has
// been revoked and the caller may reclaim that lock record.
func (k *Kernel) writerVanished(id storage.FileID, holder SiteID, serial uint64, ssHolder SiteID, selfProbe bool) bool {
	if k.probeWriterOpen(id, holder, selfProbe) {
		return false
	}
	if ssHolder != vclock.NoSite {
		// Best effort: if the revoke is lost too, the SS validates the
		// writer itself on the next open (setupServe).
		netsim.CallAt(k.node, ssHolder, mRevokeServe, k.handleRevokeServe, &revokeServeReq{ID: id, US: holder, Serial: serial}) //locus:vet-allow uncheckedcall best-effort revoke: an unreachable SS is reclaimed by the partition protocol
	}
	return true
}
