// Package topology implements the LOCUS dynamic reconfiguration
// protocols (§5 of the paper): the partition protocol, which shrinks a
// partition to a fully-connected subnetwork by iterative intersection
// of partition sets, and the merge protocol, which joins disjoint
// partitions by asynchronous polling, plus the protocol-synchronization
// rules (ordered stages, active-site failure detection) of §5.7.
//
// Each site runs a Manager. The manager owns the site's view of
// partition membership ("the site tables"); on every membership change
// it invokes the installed callback so the filesystem layer can run the
// cleanup procedure of §5.6 (lock-table rebuild, CSS re-election,
// failure handling for cross-partition resources) and the
// reconciliation layer can schedule directory merges.
package topology

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/vclock"
)

// SiteID aliases the shared site identifier.
type SiteID = vclock.SiteID

// Stage orders the protocol phases for the synchronization rule of
// §5.7: "A site can wait only for those sites who are executing a
// portion of the protocol that precedes its own"; ties break by site
// number.
type Stage int

const (
	// StageNormal: no reconfiguration in progress.
	StageNormal Stage = iota
	// StagePartition: running or following the partition protocol.
	StagePartition
	// StageMerge: running or following the merge protocol.
	StageMerge
)

func (s Stage) String() string {
	switch s {
	case StageNormal:
		return "normal"
	case StagePartition:
		return "partition"
	case StageMerge:
		return "merge"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// ErrDeclined reports that a polled site refused to join a merge run by
// this initiator (it is running its own with a lower site number).
var ErrDeclined = errors.New("topology: merge declined")

const (
	mPoll      = "topo.poll"
	mAnnounce  = "topo.announce"
	mMergePoll = "topo.mergepoll"
	mStatus    = "topo.status"
)

type pollResp struct {
	P []SiteID // the polled site's current partition set
}

type announceReq struct {
	P    []SiteID
	Gen  uint64
	From SiteID
}

type mergePollReq struct {
	From SiteID
}

type mergePollResp struct {
	P []SiteID
}

type statusResp struct {
	Stage  Stage
	Active SiteID
	Gen    uint64
}

// Manager runs the reconfiguration protocols for one site.
type Manager struct {
	site SiteID
	node *netsim.Node
	// allSites is the full configured network membership, the set the
	// merge protocol polls ("the protocol must check all possible
	// sites, including, of course, those thought to be down" — §5.5).
	allSites []SiteID

	mu        sync.Mutex
	partition []SiteID // current partition set Pα, sorted
	// installed is the set last handed to onChange: the view the layers
	// above hold, which a circuit failure does not change.
	installed []SiteID
	gen       uint64 // lamport-style generation of the installed set
	stage     Stage
	active    SiteID // the active site this site is following

	// onChange is invoked (outside the lock) whenever a new partition
	// set is installed; wired to fs cleanup + recon scheduling.
	onChange func(p []SiteID)

	// protoMu serializes protocol runs at this site: "a site can only
	// participate in one protocol at a time".
	protoMu sync.Mutex
}

// New creates a manager. allSites is the configured network membership;
// the initial partition set is all sites.
func New(node *netsim.Node, allSites []SiteID) *Manager {
	m := &Manager{
		site:      node.ID(),
		node:      node,
		allSites:  sortedCopy(allSites),
		partition: sortedCopy(allSites),
		installed: sortedCopy(allSites),
	}
	node.Handle(mPoll, m.handlePoll)
	node.Handle(mAnnounce, m.handleAnnounce)
	node.Handle(mMergePoll, m.handleMergePoll)
	node.Handle(mStatus, m.handleStatus)
	// Circuit failures update this site's believed partition set: "Failure
	// of a virtual circuit ... does, however, remove a node from a
	// partition" (§5.1). The protocols' iterative intersection relies
	// on every site's table reflecting the failures it has observed.
	node.OnLinkDown(m.noteLinkDown)
	node.OnCrash(m.crashLocal)
	return m
}

// crashLocal discards the site tables with the rest of the site's
// volatile state: a restarted site knows only itself, as its layers do,
// until a merge announces its partition.
func (m *Manager) crashLocal() {
	m.mu.Lock()
	m.partition, m.installed = []SiteID{m.site}, []SiteID{m.site}
	m.stage, m.active = StageNormal, vclock.NoSite
	m.mu.Unlock()
}

// noteLinkDown records an observed circuit failure. It runs on the
// goroutine that closed the circuit — possibly inside a Call this
// manager made (a fault that crashes the polled site) — so it takes mu
// only, which is never held across a send (blockinglock checks), and
// starts no protocol: whoever changes the topology runs them (§5.1).
func (m *Manager) noteLinkDown(peer SiteID) {
	m.mu.Lock()
	m.partition = remove(m.partition, peer)
	m.mu.Unlock()
}

// OnChange installs the membership-change callback.
func (m *Manager) OnChange(f func(p []SiteID)) {
	m.mu.Lock()
	m.onChange = f
	m.mu.Unlock()
}

// Site returns the manager's site.
func (m *Manager) Site() SiteID { return m.site }

// Partition returns the current partition set (sorted copy).
func (m *Manager) Partition() []SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]SiteID(nil), m.partition...)
}

// Generation returns the generation of the installed partition set.
func (m *Manager) Generation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen
}

// Stage returns the protocol stage and active site this site observes.
func (m *Manager) Stage() (Stage, SiteID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stage, m.active
}

func sortedCopy(s []SiteID) []SiteID {
	out := append([]SiteID(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func intersect(a, b []SiteID) []SiteID {
	var out []SiteID
	for _, x := range a {
		if slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func remove(set []SiteID, s SiteID) []SiteID {
	var out []SiteID
	for _, x := range set {
		if x != s {
			out = append(out, x)
		}
	}
	return out
}

// handlePoll answers a partition-protocol poll with this site's
// partition set and moves the site into the partition stage following
// the poller.
func (m *Manager) handlePoll(from SiteID, _ any) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stage == StageNormal {
		m.stage = StagePartition
		m.active = from
	}
	return &pollResp{P: append([]SiteID(nil), m.partition...)}, nil
}

// handleAnnounce installs an announced partition set if it is newer
// than the current one.
func (m *Manager) handleAnnounce(_ SiteID, p any) (any, error) {
	req := p.(*announceReq)
	m.install(req.P, req.Gen)
	return nil, nil
}

func (m *Manager) install(p []SiteID, gen uint64) {
	sorted := sortedCopy(p)
	m.mu.Lock()
	// A stale duplicate of the set both the layers and the site table
	// hold changes nothing; a table a circuit failure shrank takes the
	// set back.
	changed := gen > m.gen || !slices.Equal(sorted, m.installed) || !slices.Equal(sorted, m.partition)
	if changed {
		m.gen = max(m.gen, gen)
		m.partition, m.installed = sorted, sorted
	}
	m.stage, m.active = StageNormal, vclock.NoSite
	cb := m.onChange
	m.mu.Unlock()
	if changed && cb != nil {
		cb(sorted)
	}
}

// handleMergePoll implements the arbitration of §5.5: a site joins the
// merge of a lower-numbered initiator, declines otherwise.
func (m *Manager) handleMergePoll(from SiteID, _ any) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case m.stage == StageMerge && m.active == m.site && from < m.site:
		// A lower-numbered site is also merging: halt our merge and
		// follow it ("IF fsite < locsite THEN actsite := fsite; halt
		// active merge").
		m.active = from
	case m.stage == StageMerge && m.active == m.site:
		// We are the active merge site and outrank the poller.
		return nil, fmt.Errorf("%w: site %d is merging", ErrDeclined, m.site)
	default:
		m.stage = StageMerge
		m.active = from
	}
	return &mergePollResp{P: append([]SiteID(nil), m.partition...)}, nil
}

func (m *Manager) handleStatus(_ SiteID, _ any) (any, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &statusResp{Stage: m.stage, Active: m.active, Gen: m.gen}, nil
}

// RunPartitionProtocol runs the partition protocol of §5.4 with this
// site as the active site: starting from the sites believed up, poll
// each; a successful poll intersects the polled site's partition set
// into ours; a failed poll removes the site. The loop ends when every
// member of the working set has been polled and agrees — "for every
// α,β ∈ P, Pα = Pβ" — and the result is announced to the members.
// The announced set is returned.
func (m *Manager) RunPartitionProtocol() []SiteID {
	m.protoMu.Lock()
	defer m.protoMu.Unlock()

	m.mu.Lock()
	m.stage = StagePartition
	m.active = m.site
	p := append([]SiteID(nil), m.partition...)
	m.mu.Unlock()
	if !slices.Contains(p, m.site) {
		p = append(p, m.site)
	}

	pNew := []SiteID{m.site}
	for {
		// Pick the lowest unpolled member.
		var next SiteID
		for _, s := range p {
			if !slices.Contains(pNew, s) {
				next = s
				break
			}
		}
		if next == vclock.NoSite {
			break // consensus: P == P'
		}
		resp, err := m.node.Call(next, mPoll, &struct{}{})
		if err != nil {
			p = remove(p, next)
			continue
		}
		r := resp.(*pollResp)
		pNew = append(pNew, next)
		// P := P ∩ P_polled (self always stays).
		p = intersect(p, r.P)
		if !slices.Contains(p, m.site) {
			p = append(p, m.site)
		}
		// Drop polled sites that fell out of P.
		pNew = intersect(pNew, p)
		if !slices.Contains(pNew, m.site) {
			pNew = append(pNew, m.site)
		}
	}

	m.announce(p)
	return sortedCopy(p)
}

// RunMergeProtocol runs the merge protocol of §5.5 with this site as
// the initiating site: poll every configured site (including those
// thought to be down), build the union of the partition sets of the
// sites able to respond, declare the new partition, and broadcast it.
// Sites that decline (an active lower-numbered merger) abort this run,
// returning ErrDeclined.
func (m *Manager) RunMergeProtocol() ([]SiteID, error) {
	m.protoMu.Lock()
	defer m.protoMu.Unlock()

	m.mu.Lock()
	m.stage = StageMerge
	m.active = m.site
	m.mu.Unlock()

	newP := []SiteID{m.site}
	for _, s := range m.allSites {
		if s == m.site {
			continue
		}
		resp, err := m.node.Call(s, mMergePoll, &mergePollReq{From: m.site})
		if err != nil {
			if errors.Is(err, ErrDeclined) {
				// A lower-numbered site is running its own merge: halt.
				m.mu.Lock()
				m.stage = StageNormal
				m.active = vclock.NoSite
				m.mu.Unlock()
				return nil, err
			}
			continue // down or unreachable: not in the new partition
		}
		// The respondent joins the new partition. Its own partition-set
		// information (resp) is what a production system would use to
		// build global tables; membership itself is decided by direct
		// reachability, since a member of the respondent's set we could
		// not reach would violate the transitivity the low-level
		// protocols enforce — and every such site is polled directly in
		// this same loop anyway.
		if r := resp.(*mergePollResp); r != nil && !slices.Contains(newP, s) {
			newP = append(newP, s)
		}
	}

	m.announce(newP)
	return sortedCopy(newP), nil
}

// announce broadcasts and installs a new partition set.
func (m *Manager) announce(p []SiteID) {
	m.mu.Lock()
	gen := m.gen + 1
	m.mu.Unlock()
	req := &announceReq{P: sortedCopy(p), Gen: gen, From: m.site}
	for _, s := range p {
		if s == m.site {
			continue
		}
		m.node.Call(s, mAnnounce, req) //locus:vet-allow uncheckedcall a site lost here is caught by the next protocol round
	}
	m.install(req.P, gen)
}

// CheckActive is the passive-site failure detection of §5.7: a site
// waiting in a protocol checks its active site; if the active site is
// unreachable, or is ordered after us (earlier stage, or same stage and
// higher number — which would be an illegal wait), this site restarts
// the protocol itself. Returns true if a restart was performed.
func (m *Manager) CheckActive() bool {
	m.mu.Lock()
	stage, active := m.stage, m.active
	m.mu.Unlock()
	if stage == StageNormal || active == m.site || active == vclock.NoSite {
		return false
	}
	resp, err := m.node.Call(active, mStatus, &struct{}{})
	restart := false
	if err != nil {
		restart = true // active site failed: restart
	} else {
		st := resp.(*statusResp)
		// Legal wait: the active site is in our stage or a later one,
		// or outranks us by site number within the same stage.
		if st.Stage < stage || (st.Stage == stage && st.Active != active && st.Active != m.site) {
			restart = true
		}
	}
	if !restart {
		return false
	}
	m.mu.Lock()
	m.stage = StageNormal
	m.active = vclock.NoSite
	m.mu.Unlock()
	m.RunPartitionProtocol()
	return true
}
