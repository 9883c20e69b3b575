// Package recon implements the LOCUS recovery and merge machinery of
// §4: detection of conflicting updates via version vectors, automatic
// hierarchical reconciliation of directories (§4.4) and mailboxes
// (§4.5), electronic-mail notification and access blocking for
// conflicts the system cannot resolve (§4.6), and the interactive
// resolution tool.
//
// The philosophy is hierarchical (§4.3): the basic system detects all
// conflicts; for types it manages (directories, mailboxes) it merges
// automatically; database types are reported to a registered
// recovery/merge manager; everything else is reported to the owner.
package recon

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// SiteID aliases the shared site identifier.
type SiteID = fs.SiteID

// MergeManager is a registered recovery/merge manager for a file type
// the basic system does not understand (the paper's example is a
// database manager, §4.1). It returns the merged content, or an error
// to fall back to owner notification.
type MergeManager func(id storage.FileID, copies []Copy) ([]byte, error)

// Copy is one pack's version of a file during reconciliation.
type Copy struct {
	Site    SiteID
	Inode   *storage.Inode
	Content []byte
}

// Report summarizes one reconciliation pass.
type Report struct {
	// DirsMerged counts directories automatically reconciled.
	DirsMerged int
	// MailboxesMerged counts mailboxes automatically reconciled.
	MailboxesMerged int
	// ManagerMerged counts files merged by a registered merge manager.
	ManagerMerged int
	// ConflictsReported counts files left marked in conflict with the
	// owner notified by mail.
	ConflictsReported int
	// Propagated counts stale copies scheduled for ordinary
	// propagation (no conflict, one copy simply newer).
	Propagated int
	// NameConflicts counts directory entries renamed apart.
	NameConflicts int
	// DeletesUndone counts delete/modify races resolved by undoing the
	// delete (rule d of §4.4).
	DeletesUndone int
}

// Reconciler drives reconciliation for one site's kernel.
type Reconciler struct {
	k        *fs.Kernel
	managers map[storage.FileType]MergeManager
	mailSeq  atomic.Int64

	mu     sync.Mutex
	outbox []queuedMail
}

type queuedMail struct{ user, from, body string }

// New creates a reconciler bound to a kernel.
func New(k *fs.Kernel) *Reconciler {
	return &Reconciler{k: k, managers: make(map[storage.FileType]MergeManager)}
}

// queueMail defers a notification until the current reconciliation pass
// finishes: delivering mid-pass would mutate the very directories being
// merged.
func (r *Reconciler) queueMail(user, from, body string) {
	r.mu.Lock()
	r.outbox = append(r.outbox, queuedMail{user, from, body})
	r.mu.Unlock()
}

// FlushMail delivers all queued notifications.
func (r *Reconciler) FlushMail() {
	r.mu.Lock()
	out := r.outbox
	r.outbox = nil
	r.mu.Unlock()
	for _, m := range out {
		r.DeliverMail(m.user, m.from, m.body) // error unchecked by design: best-effort notification
	}
}

// RegisterManager installs a recovery/merge manager for a file type
// (§4.3: "it reflects the problem up to a higher level; to a
// recovery/merge manager if one exists for the given file type").
func (r *Reconciler) RegisterManager(t storage.FileType, m MergeManager) {
	r.managers[t] = m
}

// executor reports whether this site is responsible for reconciling the
// given file: the lowest pack site in the partition that stores a copy.
// Running the pass at every site performs each merge exactly once.
func (r *Reconciler) executor(stores []SiteID) bool {
	me := r.k.Site()
	low := SiteID(0)
	for _, s := range stores {
		if low == 0 || s < low {
			low = s
		}
	}
	return low == me
}

// ReconcileFilegroup runs the recovery procedure for one filegroup
// within the current partition: enumerate every pack's inodes, compare
// version vectors, and resolve each file according to its type. It is
// run after the merge protocol establishes a new partition ("the
// recovery procedure corrects any inconsistencies brought about either
// by the reconfiguration code itself, or by activity while the network
// was not connected" — §5.3).
func (r *Reconciler) ReconcileFilegroup(fg storage.FilegroupID) (Report, error) {
	var rep Report
	k := r.k

	// Gather each reachable pack's inode lists.
	type packList struct {
		site   SiteID
		byNum  map[storage.InodeNum]fs.InodeSummary
		inPart bool
	}
	var packs []packList
	d, ok := k.Config().FG(fg)
	if !ok {
		return rep, fmt.Errorf("recon: unknown filegroup %d", fg)
	}
	part := make(map[SiteID]bool)
	for _, s := range k.Partition() {
		part[s] = true
	}
	for _, p := range d.Packs {
		if !part[p.Site] {
			continue
		}
		list, err := k.ListInodesAt(p.Site, fg)
		if err != nil {
			continue // pack became unreachable; next merge retries
		}
		pl := packList{site: p.Site, byNum: make(map[storage.InodeNum]fs.InodeSummary), inPart: true}
		for _, s := range list {
			pl.byNum[s.Num] = s
		}
		packs = append(packs, pl)
	}
	if len(packs) < 2 {
		return rep, nil // nothing to compare against
	}

	// Collect the union of inode numbers.
	numSet := make(map[storage.InodeNum]bool)
	for _, p := range packs {
		for n := range p.byNum {
			numSet[n] = true
		}
	}
	nums := make([]storage.InodeNum, 0, len(numSet))
	for n := range numSet {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })

	for _, num := range nums {
		id := storage.FileID{FG: fg, Inode: num}
		// Which packs store it, and are the copies consistent?
		var stores []SiteID
		var sums []fs.InodeSummary
		for _, p := range packs {
			if s, ok := p.byNum[num]; ok {
				stores = append(stores, p.site)
				sums = append(sums, s)
			}
		}
		best := 0
		conflict := false
		for i := 1; i < len(sums); i++ {
			switch sums[i].VV.Compare(sums[best].VV) {
			case vclock.Dominates:
				best = i
			case vclock.Concurrent:
				conflict = true
			}
		}
		if conflict {
			// Re-check against the best copy: some copies may be
			// dominated by best even though pairwise concurrency was
			// seen along the way.
			conflict = false
			for i := range sums {
				if sums[i].VV.Concurrent(sums[best].VV) {
					conflict = true
					break
				}
			}
		}
		allEqual := true
		for i := range sums {
			if !sums[i].VV.Equal(sums[0].VV) {
				allEqual = false
				break
			}
		}
		// Directories run the rule-based merge whenever their vectors
		// differ at all — §4.4: "no recovery is needed if the version
		// vector for both copies of the directory are identical.
		// Otherwise the basic rules are ..." — because a dominating
		// copy may carry an entry delete that races a modification of
		// the *file's* data done in the other partition (rule d).
		dirTyped := sums[best].Type == storage.TypeDirectory || sums[best].Type == storage.TypeHiddenDir
		if dirTyped && !allEqual && !sums[best].Deleted {
			if !r.executor(stores) {
				continue
			}
			if err := r.resolveConflict(id, stores, sums, &rep); err != nil {
				return rep, err
			}
			continue
		}
		if !conflict {
			// At most stale copies: schedule ordinary propagation from
			// the dominant copy.
			if !r.executor(stores) {
				continue
			}
			// Targets: packs storing a stale copy, plus packs listed in
			// the file's storage-site list that missed the create
			// entirely while partitioned.
			targets := append([]SiteID(nil), stores...)
			for _, s := range sums[best].Sites {
				if part[s] && !containsSite(targets, s) {
					targets = append(targets, s)
				}
			}
			moved := len(targets) > len(stores)
			for i := range sums {
				if i != best && !sums[i].VV.Equal(sums[best].VV) {
					moved = true
				}
			}
			if moved {
				k.SchedulePullAt(targets, id, sums[best].VV, stores[best])
				rep.Propagated++
			}
			continue
		}

		if !r.executor(stores) {
			continue
		}
		// Already-marked conflicts were reported in an earlier pass and
		// await the resolution tool; do not re-report.
		allMarked := true
		for i := range sums {
			if !sums[i].Conflict {
				allMarked = false
				break
			}
		}
		if allMarked {
			continue
		}
		if err := r.resolveConflict(id, stores, sums, &rep); err != nil {
			return rep, err
		}
	}
	r.FlushMail()
	return rep, nil
}

// DemandReconcile reconciles a single file out of order so a user
// request blocked on it proceeds "with only a small delay" (§4.4:
// "we support demand recovery ... a particular directory can be
// reconciled out of order to allow access to it"). It returns the
// report of the one merge (or propagation) performed.
func (r *Reconciler) DemandReconcile(id storage.FileID) (Report, error) {
	var rep Report
	k := r.k
	sums := k.ProbeAll(id)
	if len(sums) < 2 {
		return rep, nil
	}
	var stores []SiteID
	var list []fs.InodeSummary
	for _, s := range sums {
		stores = append(stores, s.Site)
		list = append(list, s)
	}
	sort.Slice(stores, func(i, j int) bool { return stores[i] < stores[j] })
	sort.Slice(list, func(i, j int) bool { return list[i].Site < list[j].Site })

	best := 0
	conflict := false
	for i := 1; i < len(list); i++ {
		switch list[i].VV.Compare(list[best].VV) {
		case vclock.Dominates:
			best = i
		case vclock.Concurrent:
			conflict = true
		}
	}
	allEqual := true
	for i := range list {
		if !list[i].VV.Equal(list[0].VV) {
			allEqual = false
		}
	}
	if allEqual {
		return rep, nil
	}
	dirTyped := list[best].Type == storage.TypeDirectory || list[best].Type == storage.TypeHiddenDir
	if !conflict && !dirTyped {
		k.SchedulePullAt(stores, id, list[best].VV, list[best].Site)
		k.DrainPropagation()
		rep.Propagated++
		return rep, nil
	}
	err := r.resolveConflict(id, stores, list, &rep)
	r.FlushMail()
	return rep, err
}

// DemandReconcilePath reconciles the file a path names (resolving the
// path tolerates the conflict marking).
func (r *Reconciler) DemandReconcilePath(cred *fs.Cred, path string) (Report, error) {
	res, err := r.k.Resolve(cred, path)
	if err != nil {
		return Report{}, err
	}
	return r.DemandReconcile(res.ID)
}

// ReconcileAll runs ReconcileFilegroup for every filegroup this site
// stores a pack of.
func (r *Reconciler) ReconcileAll() (Report, error) {
	var total Report
	for _, fg := range r.k.Store().Filegroups() {
		rep, err := r.ReconcileFilegroup(fg)
		total.DirsMerged += rep.DirsMerged
		total.MailboxesMerged += rep.MailboxesMerged
		total.ManagerMerged += rep.ManagerMerged
		total.ConflictsReported += rep.ConflictsReported
		total.Propagated += rep.Propagated
		total.NameConflicts += rep.NameConflicts
		total.DeletesUndone += rep.DeletesUndone
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func containsSite(set []SiteID, s SiteID) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

// resolveConflict dispatches on file type (§4.3's type table).
func (r *Reconciler) resolveConflict(id storage.FileID, stores []SiteID, sums []fs.InodeSummary, rep *Report) error {
	copies, err := r.fetchCopies(id, stores)
	if err != nil {
		return err
	}
	// Delete/modify races on the file itself (§4.4 rationale b: "a file
	// which was deleted in one partition while it was modified in
	// another, wants to be saved"): if exactly one live lineage
	// diverged from tombstones, resurrect it.
	var live []Copy
	for _, c := range copies {
		if !c.Inode.Deleted {
			live = append(live, c)
		}
	}
	if len(live) > 0 && len(live) < len(copies) {
		best := 0
		trueConflict := false
		for i := 1; i < len(live); i++ {
			switch live[i].Inode.VV.Compare(live[best].Inode.VV) {
			case vclock.Dominates:
				best = i
			case vclock.Concurrent:
				trueConflict = true
			}
		}
		if !trueConflict {
			if err := r.commitMerged(id, copies, live[best].Content, live[best].Inode); err != nil {
				return err
			}
			rep.DeletesUndone++
			// The directory copies may already agree on the tombstone
			// (a stalled propagation can deliver the deleting
			// partition's directory before this comparison ran), in
			// which case no directory merge will restore the name.
			r.relinkResurrected(id)
			return nil
		}
	}
	if len(live) == 0 {
		// Tombstones with divergent vectors: unify them.
		tomb := copies[0].Inode.Clone()
		tomb.Deleted = true
		if err := r.commitMerged(id, copies, nil, tomb); err != nil {
			return err
		}
		return nil
	}

	typ := live[0].Inode.Type
	switch typ {
	case storage.TypeDirectory, storage.TypeHiddenDir:
		return r.mergeDirectories(id, copies, rep)
	case storage.TypeMailbox:
		return r.mergeMailboxes(id, copies, rep)
	default:
		if m, ok := r.managers[typ]; ok {
			if merged, err := m(id, copies); err == nil {
				if err := r.commitMerged(id, copies, merged, nil); err != nil {
					return err
				}
				rep.ManagerMerged++
				return nil
			}
		}
		// Untyped (or manager failed): mark all copies in conflict and
		// mail the owner.
		r.k.MarkConflict(id, stores)
		owner := copies[0].Inode.Owner
		r.queueMail(owner, "locus-recovery",
			fmt.Sprintf("conflict: file %v has %d divergent copies (sites %v); use the resolution tool", id, len(copies), stores))
		rep.ConflictsReported++
		return nil
	}
}

func (r *Reconciler) fetchCopies(id storage.FileID, stores []SiteID) ([]Copy, error) {
	var out []Copy
	for _, s := range stores {
		ino, content, err := r.k.FetchCopyFrom(s, id)
		if err != nil {
			continue
		}
		out = append(out, Copy{Site: s, Inode: ino, Content: content})
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("recon: could not fetch enough copies of %v", id)
	}
	return out, nil
}

// commitMerged installs merged content with a vector that dominates all
// inputs (their merge, bumped at this site) so every pack accepts it as
// strictly newer.
func (r *Reconciler) commitMerged(id storage.FileID, copies []Copy, content []byte, meta *storage.Inode) error {
	base := meta
	if base == nil {
		base = copies[0].Inode
	}
	merged := base.Clone()
	vv := vclock.New()
	for _, c := range copies {
		vv = vv.Merge(c.Inode.VV)
	}
	merged.VV = vv.Bump(r.k.Site())
	merged.Deleted = base.Deleted
	merged.Conflict = false
	return r.k.ReconcileCommit(id, merged, content)
}
