// Package storage simulates the per-site disk substrate of LOCUS: the
// physical containers (packs) that store subsets of a logical
// filegroup's files, their disk inodes and data pages, and the
// shadow-page mechanism that makes file commit atomic (§2.3.6 of the
// paper).
//
// A container is deliberately dumb: it knows nothing about the network,
// replication, or synchronization. Those live in internal/fs. What the
// container guarantees is exactly what the paper's commit mechanism
// needs:
//
//   - data pages are immutable once written (writes allocate new
//     physical pages — shadow pages);
//   - the only mutation of durable state is CommitInode, which
//     atomically replaces a file's disk inode (and releases any pages
//     no longer referenced);
//   - a crash loses nothing that was committed and everything that was
//     not.
//
// The inode number space of a filegroup is partitioned across its
// containers so every pack can allocate inodes while partitioned
// (§2.3.7: "the entire inode space of a filegroup is partitioned so
// that each physical container for the filegroup has a collection of
// inode numbers that it can allocate").
package storage

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/lint/invariant"
	"repro/internal/vclock"
)

// FilegroupID names a logical filegroup (the paper's term for a Unix
// filesystem).
type FilegroupID int

// InodeNum is a file descriptor (inode) number within a filegroup. The
// pair <FilegroupID, InodeNum> is a file's globally unique low-level
// name (§2.2.2).
type InodeNum int64

// PageNo is a logical page index within a file.
type PageNo int32

// PhysPage is a physical page id within one container. A container
// never hands out a number twice (storePage) and never changes a page's
// bytes once written, so for as long as the container lives — across
// aborts, superseding commits, drops and its site's crashes — one
// number names one page's bytes. fs's directory re-read rests on this:
// a page of a later version that its storage site holds under the same
// number is not read again (fs.dirCache).
type PhysPage int64

// PageSize is the size of one data page in bytes (VAX-era 4 KB).
const PageSize = 4096

// FileID is the globally unique low-level name of a file:
// <logical filegroup number, inode number>.
type FileID struct {
	FG    FilegroupID
	Inode InodeNum
}

func (f FileID) String() string { return fmt.Sprintf("<%d,%d>", f.FG, f.Inode) }

// Compare orders file ids by filegroup, then inode, as slices.SortFunc
// wants: the one order every sweep over a set of files runs in, so the
// sweep's sends replay under a seed.
func (f FileID) Compare(g FileID) int {
	if c := cmp.Compare(f.FG, g.FG); c != 0 {
		return c
	}
	return cmp.Compare(f.Inode, g.Inode)
}

// FileType tags every file; the recovery software uses the type to pick
// a merge strategy (§4.3).
type FileType int

const (
	// TypeRegular is an untyped data file: conflicts are reported to
	// the owner, not auto-merged.
	TypeRegular FileType = iota
	// TypeDirectory is a naming-catalog directory: auto-merged.
	TypeDirectory
	// TypeMailbox is a user mailbox: auto-merged after directories.
	TypeMailbox
	// TypeDatabase is a database file: conflicts are reported up to a
	// recovery/merge manager rather than to the user.
	TypeDatabase
	// TypeHiddenDir is a hidden directory used for context-sensitive
	// (per machine type) naming (§2.4.1).
	TypeHiddenDir
	// TypeDevice is a device special file.
	TypeDevice
	// TypePipe is a named pipe (FIFO).
	TypePipe
)

// IsDir reports a directory of the naming catalog, ordinary or hidden.
func (t FileType) IsDir() bool { return t == TypeDirectory || t == TypeHiddenDir }

// String returns the type name used in listings and conflict mail.
func (t FileType) String() string {
	switch t {
	case TypeRegular:
		return "regular"
	case TypeDirectory:
		return "directory"
	case TypeMailbox:
		return "mailbox"
	case TypeDatabase:
		return "database"
	case TypeHiddenDir:
		return "hidden-directory"
	case TypeDevice:
		return "device"
	case TypePipe:
		return "pipe"
	default:
		return fmt.Sprintf("FileType(%d)", int(t))
	}
}

// Errors returned by the container.
var (
	ErrNoInode      = errors.New("storage: no such inode")
	ErrNoPage       = errors.New("storage: no such page")
	ErrInodeSpace   = errors.New("storage: inode allocation space exhausted")
	ErrBadPageIndex = errors.New("storage: logical page index out of range")
	// ErrBadRange reports a container configured with an invalid inode
	// allocation range.
	ErrBadRange = errors.New("storage: bad inode allocation range")
	// ErrDupContainer reports a second container registered for the same
	// filegroup at one site (LOCUS packs are one-per-site).
	ErrDupContainer = errors.New("storage: duplicate container for filegroup")
)

// Inode is a file descriptor. One is either committed or in-core, and
// the two are owned differently.
//
// A committed inode is the one CommitInode installed: the container
// hands out that very inode (GetInode) and it is shared by everyone who
// reads it — open replies, read handles, pulls — so it is frozen: read
// any field, pass the pointer on, but never write through it, not a
// field, not an element of Pages or Sites, not a key of Annotations.
// That costs no lock because a disk inode is replaced, never edited
// (§2.3.6). Under -tags locusinvariants the container checks it.
//
// An in-core inode has one owner who may change it: a modify handle's
// copy at the using site, the storage site's shadow-page inode, a
// literal about to be committed. It is made with Clone (or as a
// literal), and CommitInode installs a copy of it, so the owner may go
// on changing it afterwards.
type Inode struct {
	Num   InodeNum
	Type  FileType
	Size  int64
	Pages []PhysPage // logical page -> physical page, PhysPageNil if hole
	// VV is the copy's version vector; bumped on every commit at the
	// committing site.
	VV vclock.VV
	// Owner is the file owner (conflict mail recipient).
	Owner string
	// Nlink counts directory links to the file.
	Nlink int
	// Sites lists the packs intended to store a copy of this file (the
	// CSS "has a list of packs which store the file" — §2.3.3). It is
	// part of the disk inode and travels with every copy.
	Sites []vclock.SiteID
	// Annotations carries small typed metadata (e.g. hidden-directory
	// context names, device ids). Kept string->string to stay simple.
	Annotations map[string]string
	// Mode holds Unix permission bits. (The three small fields sit
	// together, unpadded, so that an inodeBlock fills its allocation
	// size class exactly.)
	Mode uint16
	// Deleted marks a delete tombstone: the inode is retained until
	// every pack storing the file has seen the delete (§2.3.7).
	Deleted bool
	// Conflict marks the copy as in unresolved version conflict;
	// normal opens fail until reconciliation or manual resolution
	// (§4.6).
	Conflict bool
}

// PhysPageNil marks a hole (unallocated logical page).
const PhysPageNil PhysPage = 0

// NPages returns the number of logical pages the file occupies.
func (ino *Inode) NPages() int { return len(ino.Pages) }

// An inodeBlock is an inode allocated together with room for a small
// page table and site list, so that Clone of such an inode is one
// allocation. There are two sizes so that neither costs more bytes than
// the three allocations it replaces: 176 for a file of at most one page
// (most files of a build tree), 192 up to four pages.
type (
	inodeBlock1 struct {
		Inode
		pages [1]PhysPage
		sites [3]vclock.SiteID
	}
	inodeBlock4 struct {
		Inode
		pages [4]PhysPage
		sites [3]vclock.SiteID
	}
)

// Clone returns a deep copy of the inode: the in-core inode of a caller
// who means to change what it got (see Inode). The version vector is
// shared: a vclock.VV is immutable. The copy's Pages and Sites are full
// (cap == len), so appending to either reallocates; empty ones are nil.
func (ino *Inode) Clone() *Inode {
	var c *Inode
	var pages []PhysPage
	var sites []vclock.SiteID
	np, ns := len(ino.Pages), len(ino.Sites)
	switch {
	case np > 4 || ns > 3:
		c, pages, sites = new(Inode), make([]PhysPage, np), make([]vclock.SiteID, ns)
	case np <= 1:
		b := new(inodeBlock1)
		c, pages, sites = &b.Inode, b.pages[:], b.sites[:]
	default:
		b := new(inodeBlock4)
		c, pages, sites = &b.Inode, b.pages[:], b.sites[:]
	}
	*c = *ino
	c.Pages, c.Sites = nil, nil
	if np > 0 {
		c.Pages = pages[:np:np]
		copy(c.Pages, ino.Pages)
	}
	if ns > 0 {
		c.Sites = sites[:ns:ns]
		copy(c.Sites, ino.Sites)
	}
	if ino.Annotations != nil {
		c.Annotations = make(map[string]string, len(ino.Annotations))
		for k, v := range ino.Annotations {
			c.Annotations[k] = v
		}
	}
	return c
}

// Meter abstracts the simulated cost accounting so storage can charge
// disk and CPU time without importing the network package's concrete
// types. A nil meter is valid and charges nothing.
type Meter interface {
	AddCPU(us int64)
	AddDisk(us int64)
}

// Costs are the simulated costs of container primitives.
type Costs struct {
	DiskUs  int64 // one page transfer to/from the storage medium
	PageCPU int64 // buffer management + copy CPU for one page
}

// Container is one physical container of a logical filegroup stored at
// one site. It stores a subset of the filegroup's files (§2.2.2: "any
// physical container is incomplete; it stores only a subset of the
// files in the subtree to which it corresponds").
type Container struct {
	mu sync.Mutex

	fg   FilegroupID
	site vclock.SiteID

	inodes map[InodeNum]*Inode
	// twins holds, under locusinvariants (empty otherwise), a private copy
	// of each committed inode: checkFrozenLocked compares the two whenever the
	// committed one is handed out or replaced, so a write through a shared
	// inode panics at its next use.
	twins map[InodeNum]*Inode
	pages map[PhysPage][]byte
	// shared marks pages whose internal buffer has been handed out by
	// ReadPageShared (the zero-copy serve of a remote read; a pull is
	// served a copy and marks nothing). A shared buffer may be
	// aliased by a remote page cache, so freeing the page must drop the
	// buffer to the garbage collector instead of recycling it through
	// the page pool — recycling would let a new writer scribble over
	// bytes a concurrent reader is still copying.
	shared map[PhysPage]bool
	// reserved tracks numbers handed out by AllocInode but not yet
	// committed, and numbers of live files whose copy this owner pack
	// dropped (DropInode), so reallocation never double-issues a live
	// number.
	reserved map[InodeNum]bool
	// retired holds, for each number in this container's range whose
	// delete tombstone DropInode removed, the tombstone's version vector:
	// the floor the next file under the number starts above (Floor).
	// Written only when a tombstone is dropped, so it stays empty until
	// tombstones are collected.
	retired map[InodeNum]vclock.VV

	nextPage PhysPage

	// Partitioned inode allocation range [lo, hi], inclusive.
	lo, hi, next InodeNum

	meter Meter
	costs Costs
}

// NewContainer creates a container for filegroup fg at the given site
// with the inode allocation range [lo, hi].
func NewContainer(fg FilegroupID, site vclock.SiteID, lo, hi InodeNum, meter Meter, costs Costs) (*Container, error) {
	if lo <= 0 || hi < lo {
		return nil, fmt.Errorf("%w: [%d,%d] for filegroup %d at site %d", ErrBadRange, lo, hi, fg, site)
	}
	return &Container{
		fg:       fg,
		site:     site,
		inodes:   make(map[InodeNum]*Inode),
		twins:    make(map[InodeNum]*Inode),
		pages:    make(map[PhysPage][]byte),
		shared:   make(map[PhysPage]bool),
		reserved: make(map[InodeNum]bool),
		// PhysPage 0 is PhysPageNil; start allocation at 1.
		nextPage: 1,
		lo:       lo, hi: hi, next: lo,
		meter: meter,
		costs: costs,
	}, nil
}

// MustContainer is NewContainer panicking on a bad range (test and
// benchmark setup with literal, known-good ranges).
func MustContainer(fg FilegroupID, site vclock.SiteID, lo, hi InodeNum, meter Meter, costs Costs) *Container {
	c, err := NewContainer(fg, site, lo, hi, meter, costs)
	if err != nil {
		panic(err)
	}
	return c
}

// FG returns the filegroup this container belongs to.
func (c *Container) FG() FilegroupID { return c.fg }

// Site returns the site storing this container.
func (c *Container) Site() vclock.SiteID { return c.site }

func (c *Container) chargeDisk() {
	if c.meter != nil {
		c.meter.AddDisk(c.costs.DiskUs)
		c.meter.AddCPU(c.costs.PageCPU)
	}
}

// AllocInode allocates a fresh inode number from this container's
// private range, reusing numbers whose files were dropped ("the inode
// can be reallocated by the site which has control of that inode" —
// §2.3.7). The inode is not durable until CommitInode.
func (c *Container) AllocInode() (InodeNum, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	span := int64(c.hi - c.lo + 1)
	for i := int64(0); i < span; i++ {
		n := c.lo + InodeNum((int64(c.next-c.lo)+i)%span)
		_, used := c.inodes[n]
		if !used && !c.reserved[n] {
			c.reserved[n] = true
			c.next = n + 1
			if c.next > c.hi {
				c.next = c.lo
			}
			return n, nil
		}
	}
	return 0, fmt.Errorf("%w: filegroup %d site %d", ErrInodeSpace, c.fg, c.site)
}

// Floor returns the version vector a new file numbered n starts above:
// the last version of the file the number named before, once DropInode
// removed its tombstone, or the empty vector. A file's first version is its floor
// bumped at its birth site, so it dominates every version of every file
// the number named before, and versions never restart under a number: a
// cache keyed by (FileID, version vector) cannot take a dead file's
// content for a live one's.
func (c *Container) Floor(n InodeNum) vclock.VV {
	c.mu.Lock()
	defer c.mu.Unlock()
	if vv := c.retired[n]; vv != nil {
		return vv
	}
	return vclock.New()
}

// Owns reports whether the inode number lies in this container's
// allocation range, i.e. whether this pack is "the site which has
// control of that inode" for reallocation purposes (§2.3.7).
func (c *Container) Owns(n InodeNum) bool { return n >= c.lo && n <= c.hi }

// HasInode reports whether the container stores a copy of the file
// (including delete tombstones).
func (c *Container) HasInode(n InodeNum) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.inodes[n]
	return ok
}

// GetInode returns the file's disk inode: the committed inode itself,
// shared and frozen (see Inode), which stays as it is whatever is
// committed later — nothing is copied. A caller that wants to change
// what it got takes a Clone. ErrNoInode reports that the container
// stores no copy (as HasInode would).
func (c *Container) GetInode(n InodeNum) (*Inode, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.inodes[n]
	if !ok {
		return nil, fmt.Errorf("%w: %d in filegroup %d at site %d", ErrNoInode, n, c.fg, c.site)
	}
	c.checkFrozenLocked(ino)
	return ino, nil
}

// checkFrozenLocked asserts, under locusinvariants, that the committed
// inode ino still reads as CommitInode installed it. Caller holds c.mu.
func (c *Container) checkFrozenLocked(ino *Inode) {
	if invariant.Enabled {
		twin := c.twins[ino.Num]
		invariant.Assertf(reflect.DeepEqual(ino, twin),
			"storage: committed inode %d was written through a shared pointer (fg %d site %d): reads %+v, committed as %+v",
			ino.Num, c.fg, c.site, ino, twin)
	}
}

// Version is what places a stored copy among the file's other copies:
// its version vector, the two marks that take it out of normal service,
// and the type and storage-site list that every copy carries.
type Version struct {
	VV       vclock.VV
	Deleted  bool
	Conflict bool
	Type     FileType
	// Sites is the committed inode's own list, frozen with it (see
	// Inode): read it, pass it on, append to it (it is full, so an append
	// reallocates), but never write an element.
	Sites []vclock.SiteID
}

// Version returns the version of the stored copy of file n, by value,
// and whether the container stores a copy at all (as HasInode): for a
// caller that wants these five fields and not a pointer to hold.
func (c *Container) Version(n InodeNum) (Version, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.inodes[n]
	if !ok {
		return Version{}, false
	}
	c.checkFrozenLocked(ino)
	return Version{VV: ino.VV, Deleted: ino.Deleted, Conflict: ino.Conflict, Type: ino.Type, Sites: ino.Sites}, true
}

// ListInodes returns the numbers of all stored inodes, ascending.
func (c *Container) ListInodes() []InodeNum {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]InodeNum, 0, len(c.inodes))
	for n := range c.inodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readPageLocked returns physical page p: the container's own buffer,
// marked shared, or a pooled copy — made here, under the lock, because
// a free that slipped in before the copy could recycle the buffer
// mid-copy. Caller holds c.mu and charges the disk.
func (c *Container) readPageLocked(p PhysPage, shared bool) ([]byte, error) {
	data, ok := c.pages[p]
	if !ok {
		return nil, fmt.Errorf("%w: %d at site %d", ErrNoPage, p, c.site)
	}
	if shared {
		c.shared[p] = true
		return data, nil
	}
	out := getDirtyPageBuf()
	clear(out[copy(out, data):])
	return out[:len(data)], nil
}

// ReadPage returns the contents of a physical page. The returned slice
// is a copy (pages on disk are immutable), drawn from the page pool:
// the caller owns it exclusively and may release it with PutPageBuf
// once done.
func (c *Container) ReadPage(p PhysPage) ([]byte, error) {
	return c.readPhys(p, false)
}

// ReadPageShared returns the container's internal buffer for a physical
// page without copying. The buffer is immutable (shadow-page writes
// allocate new physical pages, never touch old ones) and remains valid
// even after the page is freed: serving it marks the page shared, and
// freeing a shared page drops its buffer to the GC instead of recycling
// it. Used by the read serve path (fs.read, and the writer's in-core
// pages) so a remote page read costs zero allocations and zero copies
// at the storage site; a propagation pull is served ReadPage's copy,
// which the puller adopts.
func (c *Container) ReadPageShared(p PhysPage) ([]byte, error) {
	return c.readPhys(p, true)
}

func (c *Container) readPhys(p PhysPage, shared bool) ([]byte, error) {
	c.mu.Lock()
	data, err := c.readPageLocked(p, shared)
	c.mu.Unlock()
	if err == nil {
		c.chargeDisk()
	}
	return data, err
}

// ReadFilePage reads logical page pn of the committed file n, as
// ReadPage does or, with shared set, as ReadPageShared does. It finds
// the physical page and reads it under one hold of the lock, so the
// page, size and version returned all belong to one committed version
// of the inode whatever CommitInode does around the call. (A reader
// that takes the inode first and the page second can have the page
// freed under it by a commit in between: §2.3.6 keeps old pages only
// until the inode is rewritten.) A hole, or a page past the end of the
// page table, returns nil data and charges nothing.
func (c *Container) ReadFilePage(n InodeNum, pn PageNo, shared bool) (data []byte, size int64, vv vclock.VV, err error) {
	c.mu.Lock()
	ino, ok := c.inodes[n]
	if !ok {
		c.mu.Unlock()
		return nil, 0, nil, fmt.Errorf("%w: %d in filegroup %d at site %d", ErrNoInode, n, c.fg, c.site)
	}
	size, vv = ino.Size, ino.VV
	if pn >= 0 && int(pn) < len(ino.Pages) && ino.Pages[pn] != PhysPageNil {
		data, err = c.readPageLocked(ino.Pages[pn], shared)
	}
	c.mu.Unlock()
	if data != nil {
		c.chargeDisk()
	}
	return data, size, vv, err
}

// releasePageLocked frees one physical page, recycling its buffer
// through the page pool unless the buffer has been shared out by
// ReadPageShared (then it must survive for any aliasing reader and is
// left to the GC). Caller holds c.mu.
func (c *Container) releasePageLocked(p PhysPage) {
	if p == PhysPageNil {
		return
	}
	buf, ok := c.pages[p]
	if !ok {
		return
	}
	delete(c.pages, p)
	if c.shared[p] {
		delete(c.shared, p)
		return
	}
	PutPageBuf(buf)
}

// ReadLogicalPage reads logical page pn of the committed file n into a
// pooled buffer the caller owns. Holes read as zero pages.
func (c *Container) ReadLogicalPage(n InodeNum, pn PageNo) ([]byte, error) {
	data, size, _, err := c.ReadFilePage(n, pn, false)
	if err != nil || data != nil {
		return data, err
	}
	if pn < 0 || int64(pn)*PageSize >= size {
		return nil, fmt.Errorf("%w: page %d of %d-byte file %d", ErrBadPageIndex, pn, size, n)
	}
	c.chargeDisk()
	return GetPageBuf(), nil
}

// PeekFile appends the committed content of file n to b and charges
// nothing: it is for checks — runtime invariant checks
// (internal/lint/invariant) and tests — which must leave every counter
// as they found it. Holes read as zeros.
func (c *Container) PeekFile(b []byte, n InodeNum) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.inodes[n]
	if !ok {
		return b, fmt.Errorf("%w: %d in filegroup %d at site %d", ErrNoInode, n, c.fg, c.site)
	}
	start := len(b)
	for _, p := range ino.Pages {
		page := c.pages[p] // nil for a hole
		b = append(b, page...)
		b = append(b, make([]byte, PageSize-len(page))...)
	}
	if int64(len(b)-start) < ino.Size {
		return b, fmt.Errorf("%w: %d-byte file %d holds %d pages", ErrBadPageIndex, ino.Size, n, len(ino.Pages))
	}
	return b[:start+int(ino.Size)], nil
}

// WritePage writes data to a freshly allocated shadow page and returns
// its physical page id. The page becomes reachable (and protected from
// reclamation) only when an inode referencing it is committed; until
// then it can be released with FreePages on abort.
func (c *Container) WritePage(data []byte) (PhysPage, error) {
	if len(data) > PageSize {
		return 0, fmt.Errorf("storage: page data %d bytes exceeds page size %d", len(data), PageSize)
	}
	buf := getDirtyPageBuf()
	clear(buf[copy(buf, data):])
	return c.storePage(buf), nil
}

// storePage files buf, which the container owns from here on, under a
// fresh physical page number and charges the page's transfer to disk.
// The numbers come from a counter that only grows: a freed page's number
// is never handed out again, so no page number ever names two different
// contents (PhysPage; TestPhysicalPageNumbersNeverReused).
func (c *Container) storePage(buf []byte) PhysPage {
	c.mu.Lock()
	p := c.nextPage
	c.nextPage++
	c.pages[p] = buf
	c.mu.Unlock()
	c.chargeDisk()
	return p
}

// AdoptPage makes buf, a PageSize buffer the caller owns exclusively
// (a page that arrived in a pull response), a freshly allocated shadow
// page without copying it: "when each page arrives, the buffer that
// contains it is renamed and sent out to secondary storage" (§2.3.6).
// The container owns buf from here on — the caller must not touch it
// again — and charges the disk exactly as WritePage does. Anything but
// a whole page is refused: a short buffer is a protocol bug, not
// something to paper over with a copy.
func (c *Container) AdoptPage(buf []byte) (PhysPage, error) {
	if len(buf) != PageSize {
		return 0, fmt.Errorf("storage: adopting a %d-byte buffer as a %d-byte page", len(buf), PageSize)
	}
	if invariant.Enabled {
		// Two page numbers over one buffer would Put it twice.
		c.mu.Lock()
		for p, have := range c.pages {
			if &have[0] == &buf[0] {
				invariant.Assertf(false, "storage: adopting a buffer that is already page %d (fg %d site %d)", p, c.fg, c.site)
			}
		}
		c.mu.Unlock()
	}
	return c.storePage(buf), nil
}

// FreePages releases physical pages (used on abort for shadow pages and
// by CommitInode for superseded pages). Freeing PhysPageNil or an
// already-free page is a no-op.
func (c *Container) FreePages(pp ...PhysPage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if invariant.Enabled {
		// A shadow page becomes protected the moment a committed inode
		// references it; freeing such a page would corrupt a committed
		// version (§2.3.6's atomicity rests on this).
		referenced := c.referencedPagesLocked()
		for _, p := range pp {
			if p != PhysPageNil && referenced[p] {
				invariant.Assertf(false, "storage: freeing page %d still referenced by a committed inode (fg %d site %d)", p, c.fg, c.site)
			}
		}
	}
	for _, p := range pp {
		c.releasePageLocked(p)
	}
}

// referencedPagesLocked returns the set of physical pages referenced by
// any committed inode (PhysPageNil among them, for a sparse one). Caller
// holds c.mu. Used only by invariant checks.
func (c *Container) referencedPagesLocked() map[PhysPage]bool {
	ref := make(map[PhysPage]bool)
	for _, ino := range c.inodes {
		for _, p := range ino.Pages {
			ref[p] = true
		}
	}
	return ref
}

// CommitInode atomically installs the in-core inode as the file's disk
// inode: "The atomic commit operation consists merely of moving the
// incore inode information to the disk inode" (§2.3.6). Pages
// referenced by the previous disk inode but not by the new one are
// released. The container stores a deep copy, so the caller may keep
// mutating its in-core inode afterwards; the copy is frozen from here on
// (see Inode), and the inode it replaces stays as it was for whoever
// still holds it.
// Ownership (Owns) governs only allocation, not storage: a replica of a
// file created at another pack is committed here with the same inode
// number, so CommitInode accepts any inode number.
func (c *Container) CommitInode(ino *Inode) error {
	clone := ino.Clone()
	c.mu.Lock()
	defer c.mu.Unlock()
	if invariant.Enabled {
		// The inode being installed must reference only allocated pages:
		// the commit "renames" shadow pages into the file, it never
		// conjures them (§2.3.6).
		for i, p := range clone.Pages {
			if _, ok := c.pages[p]; p != PhysPageNil && !ok {
				invariant.Assertf(false, "storage: committing inode %d with unallocated page %d at logical index %d (fg %d site %d)", clone.Num, p, i, c.fg, c.site)
			}
		}
	}
	old := c.inodes[ino.Num]
	if invariant.Enabled {
		if old != nil {
			c.checkFrozenLocked(old)
		}
		c.twins[ino.Num] = clone.Clone()
	}
	c.inodes[ino.Num] = clone
	delete(c.reserved, ino.Num)
	if old != nil {
		kept := make(map[PhysPage]bool, len(clone.Pages))
		for _, p := range clone.Pages {
			kept[p] = true
		}
		for _, p := range old.Pages {
			if p != PhysPageNil && !kept[p] {
				c.releasePageLocked(p)
			}
		}
	}
	if c.meter != nil {
		// One disk write for the inode itself.
		c.meter.AddDisk(c.costs.DiskUs)
		c.meter.AddCPU(c.costs.PageCPU / 4)
	}
	return nil
}

// DropInode removes an inode and all its pages entirely (used when a
// delete tombstone has been seen by all packs and the inode number is
// reallocated, when a replica is retired from a pack the file's storage
// sites no longer list, and by tests). A number in this container's
// range keeps a dropped tombstone's version vector as its floor (Floor);
// a live file's number stays reserved, since the file lives on at the
// packs still listed.
func (c *Container) DropInode(n InodeNum) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.inodes[n]
	if !ok {
		return
	}
	c.checkFrozenLocked(ino)
	if ino.Deleted && c.Owns(n) {
		if c.retired == nil {
			c.retired = make(map[InodeNum]vclock.VV)
		}
		c.retired[n] = ino.VV
	}
	for _, p := range ino.Pages {
		c.releasePageLocked(p)
	}
	delete(c.inodes, n)
	delete(c.twins, n)
	if !ino.Deleted && c.Owns(n) {
		c.reserved[n] = true
	} else {
		delete(c.reserved, n)
	}
}

// PageCount returns the number of allocated physical pages (for leak
// checks in tests).
func (c *Container) PageCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pages)
}

// Store is all the containers a single site hosts, keyed by filegroup.
type Store struct {
	mu   sync.Mutex // serialises AddContainer
	site vclock.SiteID
	// containers is read on every open and every page read and changes
	// only when a pack is added: the map is never written once published,
	// AddContainer publishes a new one.
	containers atomic.Pointer[map[FilegroupID]*Container]
}

// NewStore creates an empty store for a site.
func NewStore(site vclock.SiteID) *Store {
	s := &Store{site: site}
	s.containers.Store(&map[FilegroupID]*Container{})
	return s
}

// Site returns the owning site.
func (s *Store) Site() vclock.SiteID { return s.site }

// AddContainer registers a container for a filegroup. One container per
// filegroup per site, as in LOCUS packs.
func (s *Store) AddContainer(c *Container) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := *s.containers.Load()
	if _, dup := old[c.fg]; dup {
		return fmt.Errorf("%w: %d at site %d", ErrDupContainer, c.fg, s.site)
	}
	next := maps.Clone(old)
	next[c.fg] = c
	s.containers.Store(&next)
	return nil
}

// Container returns the site's container for a filegroup, or nil if
// this site stores no pack of that filegroup.
func (s *Store) Container(fg FilegroupID) *Container {
	return (*s.containers.Load())[fg]
}

// Filegroups lists the filegroups this site stores packs for,
// ascending.
func (s *Store) Filegroups() []FilegroupID {
	containers := *s.containers.Load()
	out := make([]FilegroupID, 0, len(containers))
	for fg := range containers {
		out = append(out, fg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
