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

// Add returns the field-by-field sum of r and o: the report of two
// passes together.
func (r Report) Add(o Report) Report {
	r.DirsMerged += o.DirsMerged
	r.MailboxesMerged += o.MailboxesMerged
	r.ManagerMerged += o.ManagerMerged
	r.ConflictsReported += o.ConflictsReported
	r.Propagated += o.Propagated
	r.NameConflicts += o.NameConflicts
	r.DeletesUndone += o.DeletesUndone
	return r
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

// executor reports whether this site is responsible for reconciling a
// file: the lowest pack site in the partition that stores a copy.
// Running the pass at every site performs each merge exactly once.
func (r *Reconciler) executor(sums []fs.InodeSummary) bool {
	low := SiteID(0)
	for _, s := range sums {
		if low == 0 || s.Site < low {
			low = s.Site
		}
	}
	return low == r.k.Site()
}

// ReconcileFilegroup runs the recovery procedure for one filegroup
// within the current partition: enumerate every pack's inodes and
// reconcile each file this site is the executor for (reconcileFile). It
// is run after the merge protocol establishes a new partition ("the
// recovery procedure corrects any inconsistencies brought about either
// by the reconfiguration code itself, or by activity while the network
// was not connected" — §5.3).
func (r *Reconciler) ReconcileFilegroup(fg storage.FilegroupID) (Report, error) {
	var rep Report
	k := r.k
	d, ok := k.Config().FG(fg)
	if !ok {
		return rep, fmt.Errorf("recon: unknown filegroup %d", fg)
	}

	// Gather each reachable pack's inodes, in pack order.
	part := k.Partition()
	var packs []map[storage.InodeNum]fs.InodeSummary
	for _, p := range d.Packs {
		if !containsSite(part, p.Site) {
			continue
		}
		list, err := k.ListInodesAt(p.Site, fg)
		if err != nil {
			continue // pack became unreachable; next merge retries
		}
		byNum := make(map[storage.InodeNum]fs.InodeSummary, len(list))
		for _, s := range list {
			byNum[s.Num] = s
		}
		packs = append(packs, byNum)
	}
	if len(packs) < 2 {
		return rep, nil // nothing to compare against
	}

	// Collect the union of inode numbers.
	numSet := make(map[storage.InodeNum]bool)
	for _, p := range packs {
		for n := range p {
			numSet[n] = true
		}
	}
	nums := make([]storage.InodeNum, 0, len(numSet))
	for n := range numSet {
		nums = append(nums, n)
	}
	sort.Slice(nums, func(i, j int) bool { return nums[i] < nums[j] })

	for _, num := range nums {
		var sums []fs.InodeSummary
		for _, p := range packs {
			if s, ok := p[num]; ok {
				sums = append(sums, s)
			}
		}
		if !r.executor(sums) {
			continue
		}
		if err := r.reconcileFile(storage.FileID{FG: fg, Inode: num}, sums, &rep); err != nil {
			return rep, err
		}
	}
	r.FlushMail()
	return rep, nil
}

// reconcileFile is the recovery procedure for one file, given the
// partition's copies of it in pack order: the sweep runs it for every
// file, demand recovery for one.
//
//   - A directory whose copies differ at all is merged. §4.4: "no
//     recovery is needed if the version vector for both copies of the
//     directory are identical. Otherwise the basic rules are ..." — a
//     dominating copy may carry an entry delete that races a
//     modification of the *file's* data done in the other partition
//     (rule d).
//   - Otherwise, when one copy is current (vclock.Latest), the stale
//     copies and the packs in its storage-site list that missed the
//     file entirely while partitioned get ordinary propagation from it.
//   - Otherwise the copies conflict. If every copy is already marked,
//     an earlier pass reported it and it awaits the resolution tool;
//     anything else is resolved by type (resolveConflict).
func (r *Reconciler) reconcileFile(id storage.FileID, sums []fs.InodeSummary, rep *Report) error {
	best, ok := fs.LatestCopy(sums)
	latest := sums[best]
	stores := make([]SiteID, 0, len(sums))
	differ, marked := false, true
	for _, s := range sums {
		stores = append(stores, s.Site)
		differ = differ || !s.VV.Equal(latest.VV)
		marked = marked && s.Conflict
	}
	switch {
	case latest.Type.IsDir() && differ && !latest.Deleted:
		return r.resolveConflict(id, stores, rep)
	case ok:
		part := r.k.Partition()
		targets := stores
		for _, s := range latest.Sites {
			if containsSite(part, s) && !containsSite(targets, s) {
				targets = append(targets, s)
			}
		}
		if differ || len(targets) > len(sums) {
			r.k.SchedulePullAt(targets, id, latest.VV, latest.Site)
			rep.Propagated++
		}
		return nil
	case marked:
		return nil
	default:
		return r.resolveConflict(id, stores, rep)
	}
}

// DemandReconcile reconciles a single file out of order so a user
// request blocked on it proceeds "with only a small delay" (§4.4:
// "we support demand recovery ... a particular directory can be
// reconciled out of order to allow access to it"): the sweep's
// procedure for that one file, with any propagation it schedules
// drained before it returns.
func (r *Reconciler) DemandReconcile(id storage.FileID) (Report, error) {
	var rep Report
	sums := r.k.ProbeAll(id)
	if len(sums) == 0 {
		return rep, nil
	}
	err := r.reconcileFile(id, sums, &rep)
	if rep.Propagated > 0 {
		r.k.DrainPropagation()
	}
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
		total = total.Add(rep)
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

// resolveConflict dispatches on file type (§4.3's type table). stores
// are the pack sites holding a copy.
func (r *Reconciler) resolveConflict(id storage.FileID, stores []SiteID, rep *Report) error {
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
		if best, ok := latestCopy(live); ok {
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
	switch {
	case typ.IsDir():
		return r.mergeDirectories(id, copies, rep)
	case typ == storage.TypeMailbox:
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

// latestCopy is vclock.Latest over the fetched copies' vectors.
func latestCopy(copies []Copy) (int, bool) {
	vvs := make([]vclock.VV, len(copies))
	for i, c := range copies {
		vvs[i] = c.Inode.VV
	}
	return vclock.Latest(vvs)
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
