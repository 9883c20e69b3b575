// Package txn implements the LOCUS nested transaction facility the
// paper cites as [MEUL83] ("a full implementation of nested
// transactions"): transactions bind a set of file updates together so
// they commit or abort as a unit, subtransactions can commit into or
// abort out of their parent independently, and partition changes abort
// the affected transaction subtrees ("Distributed Transaction: abort
// all related subtransactions in partition" — §5.6).
//
// The implementation builds directly on the filesystem's atomic
// single-file commit (§2.3.6): a transaction accumulates buffered
// updates and acquires each touched file's network-wide modify lock at
// first touch (the CSS's single-writer policy is the lock manager);
// top-level commit flushes every buffer through the shadow-page commit
// while still holding all locks, then releases them. Subtransaction
// commit merges its buffers into the parent; subtransaction abort
// discards them, leaving the parent's view intact.
package txn

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/fs"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// SiteID aliases the shared site identifier.
type SiteID = vclock.SiteID

// Errors returned by transaction operations.
var (
	// ErrDone: operation on a committed or aborted transaction.
	ErrDone = errors.New("txn: transaction already completed")
	// ErrChildActive: commit/abort with an uncompleted subtransaction.
	ErrChildActive = errors.New("txn: subtransaction still active")
	// ErrAborted: the transaction was aborted (possibly by partition
	// cleanup) and cannot commit.
	ErrAborted = errors.New("txn: transaction aborted")
	// ErrConflictLock: another transaction (or plain process) holds the
	// modify lock on a touched file.
	ErrConflictLock = errors.New("txn: file locked by another writer")
)

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Committed:
		return "committed"
	case Aborted:
		return "aborted"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Manager coordinates transactions at one site.
type Manager struct {
	kernel *fs.Kernel

	mu     sync.Mutex
	nextID int
	active map[int]*Txn // top-level transactions
}

// NewManager creates a transaction manager bound to a site's kernel.
func NewManager(kernel *fs.Kernel) *Manager {
	return &Manager{kernel: kernel, active: make(map[int]*Txn)}
}

// lockedFile is a file whose network-wide modify lock this transaction
// tree holds, with the committed base content.
type lockedFile struct {
	handle *fs.File
	base   []byte
	// created marks files this transaction created (abort unlinks).
	created bool
	path    string
}

// Txn is a (possibly nested) transaction.
type Txn struct {
	mgr    *Manager
	id     int
	depth  int
	parent *Txn
	cred   *fs.Cred

	mu       sync.Mutex
	state    State
	children int
	// buffers holds this level's view of touched file contents (copy
	// on first touch from the parent's view or the committed base).
	buffers map[storage.FileID][]byte
	// locks lives only on the top-level transaction: every file whose
	// modify lock the tree holds.
	locks map[storage.FileID]*lockedFile
}

// Begin starts a top-level transaction.
func (m *Manager) Begin(cred *fs.Cred) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	t := &Txn{
		mgr: m, id: m.nextID, cred: cred,
		buffers: make(map[storage.FileID][]byte),
		locks:   make(map[storage.FileID]*lockedFile),
	}
	m.active[t.id] = t
	return t
}

// Begin starts a subtransaction.
func (t *Txn) Begin() (*Txn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != Active {
		return nil, ErrDone
	}
	t.children++
	return &Txn{
		mgr: t.mgr, id: t.id, depth: t.depth + 1, parent: t, cred: t.cred,
		buffers: make(map[storage.FileID][]byte),
	}, nil
}

// State returns the transaction state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *Txn) root() *Txn {
	r := t
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// touch ensures the transaction tree holds the file's lock and this
// level has a buffer for it, creating the file if create is set.
func (t *Txn) touch(path string, create bool) (storage.FileID, error) {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return storage.FileID{}, ErrDone
	}
	t.mu.Unlock()

	root := t.root()
	k := t.mgr.kernel

	// Resolve (or create) and lock at the root.
	root.mu.Lock()
	var id storage.FileID
	var lf *lockedFile
	for fid, l := range root.locks {
		if l.path == path {
			id, lf = fid, l
			break
		}
	}
	root.mu.Unlock()

	if lf == nil {
		var handle *fs.File
		var isCreate bool
		if _, err := k.Resolve(t.cred, path); errors.Is(err, fs.ErrNotFound) && create {
			f, err := k.Create(t.cred, path, storage.TypeRegular, 0644)
			if err != nil {
				return storage.FileID{}, err
			}
			handle, isCreate = f, true
		} else if err != nil {
			return storage.FileID{}, err
		} else {
			f, err := k.Open(t.cred, path, fs.ModeModify)
			if err != nil {
				if errors.Is(err, fs.ErrBusy) {
					return storage.FileID{}, fmt.Errorf("%w: %s", ErrConflictLock, path)
				}
				return storage.FileID{}, err
			}
			handle = f
		}
		base, err := handle.ReadAll()
		if err != nil {
			handle.Close() //locus:vet-allow uncheckedcall abandoning the lock
			return storage.FileID{}, err
		}
		id = handle.ID()
		lf = &lockedFile{handle: handle, base: base, created: isCreate, path: path}
		root.mu.Lock()
		root.locks[id] = lf
		root.mu.Unlock()
	}

	// Ensure a buffer at this level: copy from the nearest ancestor's
	// view, or the committed base.
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.buffers[id]; !ok {
		t.buffers[id] = append([]byte(nil), t.viewLocked(id, lf)...)
	}
	return id, nil
}

// viewLocked returns the nearest buffered view of the file above this
// level (t.mu held; ancestors locked hand-over-hand is unnecessary
// because a parent cannot run concurrently with its active child in
// this API).
func (t *Txn) viewLocked(id storage.FileID, lf *lockedFile) []byte {
	for anc := t.parent; anc != nil; anc = anc.parent {
		if b, ok := anc.buffers[id]; ok {
			return b
		}
	}
	return lf.base
}

// ReadFile returns the transaction's view of a file.
func (t *Txn) ReadFile(path string) ([]byte, error) {
	// A pure read inside the transaction still takes the write lock in
	// this implementation (conservative two-phase locking at file
	// granularity).
	id, err := t.touch(path, false)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]byte(nil), t.buffers[id]...), nil
}

// WriteFile replaces the file's content in the transaction's view.
func (t *Txn) WriteFile(path string, data []byte) error {
	id, err := t.touch(path, false)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buffers[id] = append([]byte(nil), data...)
	return nil
}

// CreateFile creates a file within the transaction and sets its
// content. Abort of the (sub)tree unlinks it again.
func (t *Txn) CreateFile(path string, data []byte) error {
	id, err := t.touch(path, true)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buffers[id] = append([]byte(nil), data...)
	return nil
}

// AppendFile appends to the transaction's view of the file.
func (t *Txn) AppendFile(path string, data []byte) error {
	id, err := t.touch(path, false)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buffers[id] = append(t.buffers[id], data...)
	return nil
}

// Commit completes the transaction. A subtransaction's buffers merge
// into its parent (visible there, still undoable by the parent); the
// top-level commit flushes every touched file through the atomic
// shadow-page commit and releases all locks.
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrDone
	}
	if t.children > 0 {
		t.mu.Unlock()
		return ErrChildActive
	}
	t.mu.Unlock()

	if t.parent != nil {
		t.parent.mu.Lock()
		t.mu.Lock()
		for id, buf := range t.buffers {
			t.parent.buffers[id] = buf
		}
		t.state = Committed
		t.parent.children--
		t.mu.Unlock()
		t.parent.mu.Unlock()
		return nil
	}

	// Top level: flush while holding every lock, then release.
	t.mu.Lock()
	if t.state != Active { // re-check: partition cleanup may have aborted us
		t.mu.Unlock()
		return ErrAborted
	}
	locks := t.locks
	buffers := t.buffers
	t.state = Committed
	t.mu.Unlock()

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for id, lf := range locks {
		if buf, dirty := buffers[id]; dirty {
			if err := lf.handle.WriteAll(buf); err != nil {
				keep(err)
			} else {
				keep(lf.handle.Commit())
			}
		}
		keep(lf.handle.Close())
	}
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.id)
	t.mgr.mu.Unlock()
	return firstErr
}

// Abort undoes the transaction: a subtransaction's buffers are
// discarded (the parent's view is untouched); a top-level abort reverts
// every touched file and releases all locks. Files created inside the
// aborted scope are unlinked.
func (t *Txn) Abort() error {
	t.mu.Lock()
	if t.state != Active {
		t.mu.Unlock()
		return ErrDone
	}
	t.state = Aborted
	t.mu.Unlock()

	if t.parent != nil {
		t.parent.mu.Lock()
		t.parent.children--
		t.parent.mu.Unlock()
		return nil
	}
	return t.releaseAborted()
}

// releaseAborted rolls back and releases a top-level transaction.
func (t *Txn) releaseAborted() error {
	k := t.mgr.kernel
	t.mu.Lock()
	locks := t.locks
	t.locks = map[storage.FileID]*lockedFile{}
	t.mu.Unlock()
	var firstErr error
	for _, lf := range locks {
		if err := lf.handle.Abort(); err != nil && firstErr == nil && !errors.Is(err, fs.ErrStale) {
			firstErr = err
		}
		lf.handle.Close() //locus:vet-allow uncheckedcall releasing
		if lf.created {
			if err := k.Unlink(t.cred, lf.path); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	t.mgr.mu.Lock()
	delete(t.mgr.active, t.id)
	t.mgr.mu.Unlock()
	return firstErr
}

// CleanupAfterPartitionChange aborts every active transaction that
// touched a file whose storage site left the partition — the
// "Distributed Transaction: abort all related subtransactions in
// partition" row of the §5.6 cleanup table; the network's
// TxnPartitionAborts counts them.
func (m *Manager) CleanupAfterPartitionChange(newPartition []SiteID) {
	in := make(map[SiteID]bool, len(newPartition))
	for _, s := range newPartition {
		in[s] = true
	}
	m.mu.Lock()
	var doomed []*Txn
	for _, t := range m.active {
		t.mu.Lock()
		for _, lf := range t.locks {
			if lf.handle.Stale() || !in[lf.handle.SS()] {
				doomed = append(doomed, t)
				break
			}
		}
		t.mu.Unlock()
	}
	m.mu.Unlock()

	for _, t := range doomed {
		t.mu.Lock()
		if t.state == Active {
			t.state = Aborted
			t.mu.Unlock()
			t.releaseAborted() // error unchecked by design: best-effort rollback during failure handling
		} else {
			t.mu.Unlock()
		}
	}
	if len(doomed) > 0 {
		m.kernel.Node().Network().Meter().AddTxnPartitionAborts(len(doomed))
	}
}

// CrashLocal discards every active transaction when this site crashes
// (§5.6): the buffered updates and the lock table are volatile and die
// with the site. No rollback RPCs are attempted — the modify locks are
// reclaimed by the filesystem's own crash cleanup at the surviving
// sites. Registered via netsim.OnCrash in the cluster wiring.
func (m *Manager) CrashLocal() {
	m.mu.Lock()
	active := m.active
	m.active = make(map[int]*Txn)
	m.mu.Unlock()
	for _, t := range active {
		t.mu.Lock()
		if t.state == Active {
			t.state = Aborted
		}
		t.locks = map[storage.FileID]*lockedFile{}
		t.mu.Unlock()
	}
}

// ActiveCount reports the number of live top-level transactions.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
