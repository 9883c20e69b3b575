// Package fs implements the LOCUS distributed filesystem (§2 of the
// paper): a single network-wide naming tree built from replicated
// filegroups, with transparent remote access through the three logical
// sites of every file operation — using site (US), storage site (SS)
// and current synchronization site (CSS) — atomic file commit via
// shadow pages, pull-based update propagation, and context-sensitive
// hidden directories.
//
// Each participating machine runs a Kernel, which owns that site's
// containers (internal/storage) and its attachment to the network
// (internal/netsim). All inter-site interaction uses the specialized
// message protocols of §2.3; their message counts match the paper
// (general open 4, read 2, write 1, close 4) and are verified by tests.
package fs

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// SiteID aliases the shared site identifier type.
type SiteID = vclock.SiteID

// OpenMode says what an open intends. LOCUS synchronization policy
// (§2.3.1) is enforced per-mode at the CSS.
type OpenMode int

const (
	// ModeRead opens for reading committed data.
	ModeRead OpenMode = iota
	// ModeModify opens for modification; at most one such open per
	// file network-wide (the default LOCUS policy used in the paper's
	// examples).
	ModeModify
	// ModeInternal is an internal unsynchronized read used by pathname
	// searching (§2.3.4): no global lock is taken at the CSS.
	ModeInternal
)

func (m OpenMode) String() string {
	switch m {
	case ModeRead:
		return "read"
	case ModeModify:
		return "modify"
	case ModeInternal:
		return "internal"
	default:
		return fmt.Sprintf("OpenMode(%d)", int(m))
	}
}

// PackDesc describes one physical container of a filegroup.
type PackDesc struct {
	Site SiteID
	// Lo, Hi bound the pack's private inode allocation range.
	Lo, Hi storage.InodeNum
}

// FilegroupDesc describes a logical filegroup: where it is mounted in
// the global tree and which sites hold physical containers.
type FilegroupDesc struct {
	FG storage.FilegroupID
	// MountPath is "/" for the root filegroup, otherwise the absolute
	// path where this filegroup's root directory is attached.
	MountPath string
	Packs     []PackDesc
}

// PackSites returns the pack sites in declaration order.
func (d FilegroupDesc) PackSites() []SiteID {
	out := make([]SiteID, len(d.Packs))
	for i, p := range d.Packs {
		out[i] = p.Site
	}
	return out
}

// RootInode is the inode number of every filegroup's root directory.
const RootInode storage.InodeNum = 1

// Config is the replicated filesystem configuration: the logical mount
// table plus pack placement. The paper keeps this state replicated at
// all sites (§2.1) and requires the mount hierarchy to be the same
// everywhere (§5.1); we model that by sharing one immutable Config.
type Config struct {
	Filegroups []FilegroupDesc
	// Features is the cluster's one protocol-extension selection, set
	// before the kernels boot and fixed for the cluster's lifetime.
	Features Features

	mountByPath map[string]storage.FilegroupID
	byFG        map[storage.FilegroupID]FilegroupDesc
}

// NewConfig validates and indexes a filesystem configuration. Exactly
// one filegroup must be mounted at "/".
func NewConfig(fgs []FilegroupDesc) (*Config, error) {
	c := &Config{
		Filegroups:  fgs,
		mountByPath: make(map[string]storage.FilegroupID),
		byFG:        make(map[storage.FilegroupID]FilegroupDesc),
	}
	root := false
	for _, d := range fgs {
		if len(d.Packs) == 0 {
			return nil, fmt.Errorf("fs: filegroup %d has no packs", d.FG)
		}
		if _, dup := c.byFG[d.FG]; dup {
			return nil, fmt.Errorf("fs: duplicate filegroup %d", d.FG)
		}
		if _, dup := c.mountByPath[d.MountPath]; dup {
			return nil, fmt.Errorf("fs: duplicate mount path %q", d.MountPath)
		}
		if d.MountPath == "/" {
			root = true
		}
		c.byFG[d.FG] = d
		c.mountByPath[d.MountPath] = d.FG
	}
	if !root {
		return nil, fmt.Errorf("fs: no filegroup mounted at /")
	}
	return c, nil
}

// FG returns the descriptor for a filegroup.
func (c *Config) FG(fg storage.FilegroupID) (FilegroupDesc, bool) {
	d, ok := c.byFG[fg]
	return d, ok
}

// MountAt returns the filegroup mounted at an absolute path, if any.
func (c *Config) MountAt(path string) (storage.FilegroupID, bool) {
	fg, ok := c.mountByPath[path]
	return fg, ok
}

// Cred is the per-process context a system call executes under. It
// carries the paper's inherited per-process state: the default number
// of copies for created files (§2.3.7) and the hidden-directory context
// list (§2.4.1).
type Cred struct {
	// User is the requesting user (owner of created files; conflict
	// mail recipient).
	User string
	// NCopies is the inherited default replication factor for created
	// files; the effective factor is min(NCopies, parent directory's).
	// Zero means "inherit the parent directory's factor".
	NCopies int
	// HiddenCtx is the per-process context for hidden directories,
	// tried in order (e.g. ["vax", "generic"]).
	HiddenCtx []string
}

// DefaultCred returns a usable credential for user u.
func DefaultCred(u string) *Cred { return &Cred{User: u} }

// ssServe is SS-side state for one file with at least one remote or
// local open being served from this storage site.
type ssServe struct {
	id storage.FileID
	// incore is the in-core inode: for a writer it accumulates shadow
	// pages; for readers it is a snapshot of the committed inode.
	incore *storage.Inode
	// committedPages remembers the committed page table at open time so
	// abort can release only true shadow pages.
	committedPages map[storage.PhysPage]bool
	writerUS       SiteID // NoSite when no open-for-modify in progress
	writerSerial   uint64 // that open's registration serial at writerUS
	dirty          map[storage.PageNo]bool
	truncated      bool           // a truncate happened: propagate the whole file
	readers        map[SiteID]int // US -> open count being served
}

// shadowPages returns the writer's uncommitted pages: those of the
// in-core inode that the committed page table does not hold. Caller
// holds k.mu.
func (sv *ssServe) shadowPages() []storage.PhysPage {
	if sv.incore == nil {
		return nil
	}
	var out []storage.PhysPage
	for _, pp := range sv.incore.Pages {
		if pp != storage.PhysPageNil && !sv.committedPages[pp] {
			out = append(out, pp)
		}
	}
	return out
}

// dropWriter ends the writer's session at this storage site, discarding
// its uncommitted changes, and returns the shadow pages for the caller to
// free once k.mu is released. Every path that releases a writer's
// serving state — close, lock-table validation's revoke, §5.6 cleanup —
// goes through here. Caller holds k.mu.
func (sv *ssServe) dropWriter() []storage.PhysPage {
	pages := sv.shadowPages()
	sv.writerUS = vclock.NoSite
	sv.incore = nil
	sv.committedPages = nil
	sv.dirty = nil
	return pages
}

// idle reports whether the entry serves nobody any more and can go.
func (sv *ssServe) idle() bool { return sv.writerUS == vclock.NoSite && len(sv.readers) == 0 }

// freeShadow frees shadow pages a dropWriter or an abort returned, with
// k.mu released.
func (k *Kernel) freeShadow(fg storage.FilegroupID, pages []storage.PhysPage) {
	if c := k.container(fg); c != nil && len(pages) > 0 {
		c.FreePages(pages...)
	}
}

// cssEntry is CSS-side synchronization state for one file: the lock
// table entry rebuilt on reconfiguration (§5.6).
type cssEntry struct {
	id       storage.FileID
	typ      storage.FileType // never changes for an inode
	writerUS SiteID           // site with the single open-for-modify
	writerSS SiteID           // storage site serving that writer
	// writerSerial is that open's registration serial at writerUS. A
	// site re-opens a hot directory within microseconds of closing it,
	// so the site id alone cannot tell a registration from its successor.
	writerSerial uint64
	// latestVV is the most current version the CSS knows of (§2.3.1:
	// the CSS "must have knowledge of ... what the most current
	// version of the file is").
	latestVV vclock.VV
	// sites is the packs storing the file, from the disk inode. The list
	// is replaced whole under k.mu and never edited in place, so an open
	// reads the slice header under the lock and goes on using the list
	// after it (handleOpen).
	sites []SiteID
	// delegates is the set of using sites holding a read delegation. A
	// delegate opens, reads, and closes locally, and the CSS only hears
	// from it again on a revoke round.
	delegates map[SiteID]bool
}

// releaseWriterLocked frees e's writer slot if it still records the
// registration (us, serial) — a release naming a registration that has
// since been replaced, even by the same site, changes nothing — and
// wakes the opens waiting for a slot. Caller holds k.mu.
func (k *Kernel) releaseWriterLocked(e *cssEntry, us SiteID, serial uint64) {
	if e.writerUS == us && e.writerSerial == serial {
		e.writerUS = vclock.NoSite
		e.writerSS = vclock.NoSite
		k.writerFreed.Broadcast()
	}
}

// absorb records vv as the latest version when it is newer than the one
// the entry knows, with sites, when given, as its storage sites (a copy:
// the entry's list is replaced whole, never edited). Caller holds k.mu.
func (e *cssEntry) absorb(vv vclock.VV, sites []SiteID) {
	if vv.Compare(e.latestVV) != vclock.Dominates {
		return
	}
	e.latestVV = vv
	if sites != nil {
		e.sites = append([]SiteID(nil), sites...)
	}
}

// propTask is one queued propagation pull (§2.3.6: "A queue of
// propagation requests is kept by the kernel at each site and a kernel
// process services the queue").
type propTask struct {
	id     storage.FileID
	vv     vclock.VV
	origin SiteID
	pages  []storage.PageNo // nil = whole file
	// base is the version of this pack's copy that pages lists the
	// changes to: the pages are pulled onto that copy and no other.
	base vclock.VV
	// drop marks a replica-retirement task: this pack is no longer in
	// the file's storage-site list, and may discard its copy once every
	// listed site holds the current version ("a move of an object is
	// equivalent to an add followed by a delete of an object copy" —
	// §2.2.1).
	drop  bool
	sites []SiteID
}

// Kernel is the filesystem half of one site's operating system.
type Kernel struct {
	site  SiteID
	node  *netsim.Node
	store *storage.Store
	cfg   *Config

	mu sync.Mutex
	// partition is the sorted set of sites this kernel believes are in
	// its partition (maintained by the reconfiguration layer).
	partition []SiteID
	// open state
	ssState  map[storage.FileID]*ssServe
	cssState map[storage.FileID]*cssEntry
	// writerFreed (over mu) is where a directory's modify open waits for
	// its writer slot; a release, §5.6 cleanup and a crash broadcast it.
	writerFreed sync.Cond
	// pendingProp marks files with propagations queued but not yet
	// pulled in; pathname searching must not trust the local copy then.
	pendingProp map[storage.FileID]*propTask
	propQueue   []storage.FileID
	// stalledProp holds pulls whose origin left the partition; they are
	// requeued when a merge restores connectivity.
	stalledProp []*propTask
	// openFiles tracks US-side open handles for cleanup on partition
	// change.
	openFiles map[*File]bool
	// openSerial numbers handles as they register, giving cleanup a
	// total iteration order (two handles on one file are otherwise
	// indistinguishable and map order is random). Each own operation
	// also draws one before it asks the CSS (dropOwnLeases), which names
	// the writer registration of a modify open or a create
	// (openReq.Serial, createReq.Serial).
	openSerial uint64
	// inflightSerials holds the serials of this site's own modify opens,
	// fs.dirops and fs.creates whose request has not been answered yet:
	// a recall (mRecallWriter) arriving between the CSS's grant and our
	// receipt of the response does not take the registration for a
	// stale lock, and no delegation is granted meanwhile (recordLease).
	inflightSerials map[uint64]bool
	// recalledSerials holds the serials of this site's writer
	// registrations that a recall found live. Each gives its slot back
	// when it ends (giveBackRecalled), since an open may be waiting for
	// it at the CSS.
	recalledSerials map[uint64]bool
	// leases is the US-side table of read delegations: files this site
	// may re-open, read, and close locally without contacting the CSS.
	leases map[storage.FileID]*usLease
	// leaseEpoch moves whenever a CSS may have dropped this site's
	// delegate record without the site seeing its delegation go: a
	// grant is recorded only if the epoch has not moved since its
	// request left (recordLease).
	leaseEpoch uint64

	// cache is the using-site page cache of committed pages (§2.2.1).
	cache *pageCache
	// dirs caches decoded directory content by (file, version vector)
	// so pathname searching does not re-parse an unchanged directory on
	// every component of every path (see dircache.go).
	dirs dirCache
}

// Features selects the protocol extensions every kernel of a cluster
// runs (Config.Features). The zero value is the paper's protocol plus
// bulk pull, the using-site page cache, streaming readahead and read
// delegations: what every benchmark workload runs. Each field switches
// one of them off (or, SerialPull, back to the paper's pull), for the
// pins of the paper's figures and the ablations.
type Features struct {
	// SerialPull makes pullFile pay the original one-fs.readphys-
	// exchange-per-page cost instead of the windowed fs.pullpages
	// protocol.
	SerialPull bool
	// NoPageCache turns the using-site page cache (§2.2.1) off, and
	// with it streaming readahead, which deposits into the cache.
	NoPageCache bool
	// NoDelegations turns read delegations (lease.go) off: every open
	// and close then goes through the CSS, as §2.3.3 has it.
	NoDelegations bool
}

// meter returns the network-wide cost meter (cache/readahead counters).
func (k *Kernel) meter() *netsim.Stats { return k.node.Network().Meter() }

// NewKernel creates the filesystem kernel for one site and registers
// its network handlers. The initial partition view is all sites of all
// packs in the configuration and this one (a fully-up network); a
// cluster sets it to the sites it booted (SetPartition).
func NewKernel(node *netsim.Node, store *storage.Store, cfg *Config) *Kernel {
	k := &Kernel{
		site:            node.ID(),
		node:            node,
		store:           store,
		cfg:             cfg,
		ssState:         make(map[storage.FileID]*ssServe),
		cssState:        make(map[storage.FileID]*cssEntry),
		pendingProp:     make(map[storage.FileID]*propTask),
		openFiles:       make(map[*File]bool),
		inflightSerials: make(map[uint64]bool),
		recalledSerials: make(map[uint64]bool),
		leases:          make(map[storage.FileID]*usLease),
	}
	k.writerFreed.L = &k.mu
	k.cache = newPageCache(node.Network().Meter())
	seen := map[SiteID]bool{}
	for _, d := range cfg.Filegroups {
		for _, p := range d.Packs {
			if !seen[p.Site] {
				seen[p.Site] = true
				k.partition = append(k.partition, p.Site)
			}
		}
	}
	if !seen[k.site] {
		k.partition = append(k.partition, k.site)
	}
	sort.Slice(k.partition, func(i, j int) bool { return k.partition[i] < k.partition[j] })
	k.registerHandlers()
	node.OnCrash(k.crashLocal)
	return k
}

// crashLocal discards all volatile kernel state when this site
// crashes: in-core inodes, lock tables, open files, queued pulls. The
// disk (storage.Store) survives, which is exactly the commit
// mechanism's guarantee.
func (k *Kernel) crashLocal() {
	k.mu.Lock()
	defer k.mu.Unlock()
	for f := range k.openFiles {
		f.stale = true
		f.closed = true
	}
	k.openFiles = make(map[*File]bool)
	k.inflightSerials = make(map[uint64]bool)
	k.recalledSerials = make(map[uint64]bool)
	k.ssState = make(map[storage.FileID]*ssServe)
	k.cssState = make(map[storage.FileID]*cssEntry)
	k.leases = make(map[storage.FileID]*usLease)
	k.leaseEpoch++ // a grant in flight is declined
	k.pendingProp = make(map[storage.FileID]*propTask)
	k.propQueue = nil
	k.stalledProp = nil
	k.partition = []SiteID{k.site}
	k.cache.purge()
	k.writerFreed.Broadcast() // the lock table a waiter parked on is gone
}

// Site returns this kernel's site id.
func (k *Kernel) Site() SiteID { return k.site }

// Store exposes the site's storage (reconciliation reads through it).
func (k *Kernel) Store() *storage.Store { return k.store }

// Config returns the shared filesystem configuration.
func (k *Kernel) Config() *Config { return k.cfg }

// Node returns the site's network attachment.
func (k *Kernel) Node() *netsim.Node { return k.node }

// SetPartition installs a new partition view (sorted copy). The
// reconfiguration layer calls this after the partition/merge protocols
// agree on membership.
func (k *Kernel) SetPartition(sites []SiteID) {
	s := append([]SiteID(nil), sites...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k.mu.Lock()
	k.partition = s
	k.mu.Unlock()
}

// Partition returns the kernel's current partition view (sorted copy).
func (k *Kernel) Partition() []SiteID {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]SiteID(nil), k.partition...)
}

func (k *Kernel) inPartition(s SiteID) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.inPartitionLocked(s)
}

func (k *Kernel) inPartitionLocked(s SiteID) bool {
	for _, x := range k.partition {
		if x == s {
			return true
		}
	}
	return false
}

// CSSOf returns the current synchronization site for a filegroup: the
// lowest-numbered pack site present in this kernel's partition. Every
// kernel in a partition computes the same answer from the same view,
// which is how "there is only one CSS for any given filegroup in any
// set of communicating sites" (§2.3.1) is maintained.
func (k *Kernel) CSSOf(fg storage.FilegroupID) (SiteID, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.cssOfLocked(fg)
}

// cssOfLocked is CSSOf for a caller that holds k.mu.
func (k *Kernel) cssOfLocked(fg storage.FilegroupID) (SiteID, error) {
	d, ok := k.cfg.FG(fg)
	if !ok {
		return 0, fmt.Errorf("fs: unknown filegroup %d", fg)
	}
	var best SiteID
	for _, p := range d.Packs {
		if k.inPartitionLocked(p.Site) && (best == 0 || p.Site < best) {
			best = p.Site
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("%w: filegroup %d", ErrNoCSS, fg)
	}
	return best, nil
}

// packSitesInPartition returns the filegroup's pack sites that are in
// the current partition, in pack declaration order.
func (k *Kernel) packSitesInPartition(fg storage.FilegroupID) []SiteID {
	d, ok := k.cfg.FG(fg)
	if !ok {
		return nil
	}
	var out []SiteID
	for _, p := range d.Packs {
		if k.inPartition(p.Site) {
			out = append(out, p.Site)
		}
	}
	return out
}

// container returns this site's container for fg, or nil.
func (k *Kernel) container(fg storage.FilegroupID) *storage.Container {
	return k.store.Container(fg)
}

// File is a US-side open file handle (the inode plus open
// bookkeeping). It is not safe for concurrent use by multiple
// goroutines without external synchronization — matching a Unix file
// descriptor, whose sharing semantics the process layer provides via
// the token scheme (§3.2).
type File struct {
	k    *Kernel
	id   storage.FileID
	mode OpenMode
	us   SiteID
	ss   SiteID
	css  SiteID
	// ino is the file's inode as the open found it. A read or internal
	// handle shares the committed inode the storage site handed out
	// (storage.Inode: frozen, never written through); a modify handle
	// owns a Clone of it, the in-core inode at the US, and keeps its Size
	// equal to size.
	ino *storage.Inode
	// size is the file size this handle sees: for a writer what it has
	// written so far, for a reader what the SS reported with the last
	// page it served (the committed size can move under an open reader,
	// the shared inode cannot).
	size int64
	// dirty tracks logical pages modified through this handle; nil on a
	// handle that is not open for modification, which never writes it.
	dirty  map[storage.PageNo]bool
	closed bool
	// internal marks pathname-search opens (no CSS lock held).
	internal bool
	// stale is set when the handle's storage site was lost to a
	// partition change and no substitute copy could be found; the
	// paper's cleanup table calls this "set error in local file
	// descriptor" (§5.6).
	stale bool
	// delegated marks a read handle opened under a read delegation, or
	// by the open that was granted one: it holds no CSS lock entry and no
	// SS serving state, and its close is pure local bookkeeping.
	delegated bool
	// raNext is the page a sequential reader would fetch next; raWindow
	// is the current streaming-readahead window of a read handle
	// (§2.3.3): the SS piggybacks up to raWindow following pages on each
	// read response, deposited into the using-site page cache. It
	// doubles on sequential access up to RAMax and resets on a seek.
	raNext   storage.PageNo
	raWindow int
	// serial is the handle's registration number (see Kernel.openSerial).
	serial uint64
	// wserial names the writer registration a modify handle writes
	// through (openReq.Serial), drawn for this open.
	wserial uint64
}

// registerOpenLocked records an open handle for partition cleanup and
// stamps its serial. Caller holds k.mu.
func (k *Kernel) registerOpenLocked(f *File) {
	k.openSerial++
	f.serial = k.openSerial
	k.openFiles[f] = true
}

// Stale reports whether the handle lost its storage site to a failure.
func (f *File) Stale() bool { return f.stale }

// ID returns the file's globally unique low-level name.
func (f *File) ID() storage.FileID { return f.id }

// Mode returns the open mode.
func (f *File) Mode() OpenMode { return f.mode }

// SS returns the storage site currently serving this open.
func (f *File) SS() SiteID { return f.ss }

// Size returns the file size seen by this handle.
func (f *File) Size() int64 { return f.size }

// Type returns the file type.
func (f *File) Type() storage.FileType { return f.ino.Type }

// Inode returns a snapshot of the handle's inode, the caller's own.
func (f *File) Inode() *storage.Inode {
	ino := f.ino.Clone()
	ino.Size = f.size
	return ino
}
