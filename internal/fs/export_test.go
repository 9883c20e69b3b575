package fs

import (
	"fmt"

	"repro/internal/format"
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// CachedPages reports how many pages the using-site cache holds, for
// the white-box assertions of the external test package.
func (k *Kernel) CachedPages() int { return k.cache.len() }

// OpenHandles reports how many handles are registered now and how many
// have ever been: a pathname search that makes no handle moves neither.
func (k *Kernel) OpenHandles() (open int, registered uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.openFiles), k.openSerial
}

// CSSWriter reports the writer site this kernel's lock table records
// for id (vclock.NoSite when none): what a lost close strands at the CSS.
func (k *Kernel) CSSWriter(id storage.FileID) SiteID {
	k.mu.Lock()
	defer k.mu.Unlock()
	if e := k.cssState[id]; e != nil {
		return e.writerUS
	}
	return vclock.NoSite
}

// ServingWriter reports the writer site this kernel serves id for as
// storage site (vclock.NoSite when none): what a lost close strands at
// the SS.
func (k *Kernel) ServingWriter(id storage.FileID) SiteID {
	k.mu.Lock()
	defer k.mu.Unlock()
	if sv := k.ssState[id]; sv != nil {
		return sv.writerUS
	}
	return vclock.NoSite
}

// LoseServing drops this storage site's serving state for id, freeing
// the writer's shadow pages, as a storage site that lost its in-core
// state would: the writer's next commit here fails with ErrStale.
func (k *Kernel) LoseServing(id storage.FileID) {
	k.mu.Lock()
	var freed []storage.PhysPage
	if sv := k.ssState[id]; sv != nil {
		freed = k.dropWriterLocked(sv)
	}
	k.mu.Unlock()
	k.freeShadow(id.FG, freed)
}

// ServedBy reports the storage site the handle reads from.
func (f *File) ServedBy() SiteID { return f.ss }

// CSSLatest reports the latest version of id this kernel's lock table
// knows of (nil when it keeps no entry for id).
func (k *Kernel) CSSLatest(id storage.FileID) vclock.VV {
	k.mu.Lock()
	defer k.mu.Unlock()
	if e := k.cssState[id]; e != nil {
		return e.latestVV
	}
	return nil
}

// LookInternal is lookInternal, for comparison with OpenID(ModeInternal).
func (k *Kernel) LookInternal(id storage.FileID) (*storage.Inode, SiteID, error) {
	return k.lookInternal(id)
}

// StalledPropagations reports how many pulls wait for their origin to
// come back into the partition.
func (k *Kernel) StalledPropagations() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.stalledProp)
}

// NotifyTombstone sends, as site from, the note of the delete of id that
// from committed to site to: the note the delete sent to the packs in
// from's partition then, for a pack that was not.
func NotifyTombstone(from *Kernel, to SiteID, id storage.FileID) error {
	tomb, err := from.container(id.FG).GetInode(id.Inode)
	if err != nil {
		return err
	}
	return netsim.Cast(from.node, to, mPropNotify, &propNotify{ID: id, VV: tomb.VV, Origin: from.site, Sites: tomb.Sites, Tomb: tomb})
}

// NotifyCommit casts from's committed version of id to site to as its
// commit's notification, for a site the notification did not reach: a
// site that stores a copy and is not listed takes it as a retirement.
func NotifyCommit(from *Kernel, to SiteID, id storage.FileID) error {
	ino, err := from.container(id.FG).GetInode(id.Inode)
	if err != nil {
		return err
	}
	return netsim.Cast(from.node, to, mPropNotify, &propNotify{ID: id, VV: ino.VV, Origin: from.site, Sites: ino.Sites})
}

// CachedDir reports the snapshot of directory id the directory cache
// holds and the version it holds it at (nil, nil if none).
func (k *Kernel) CachedDir(id storage.FileID) (*format.DirSnapshot, vclock.VV) {
	e := k.dirs.entry(id)
	if e.ino == nil {
		return nil, nil
	}
	return e.dir, e.ino.VV
}

// ReadDirByID is readDirByID: directory id as a pathname search reads
// it, from the look (ino, ss) when ino is not nil.
func (k *Kernel) ReadDirByID(id storage.FileID, ino *storage.Inode, ss SiteID) (*format.DirSnapshot, error) {
	d, _, err := k.readDirByID(id, ino, ss)
	return d, err
}

// ForgeCachedDirPages makes the directory cache's entry of id claim the
// page table pages, whatever storage site it names.
func (k *Kernel) ForgeCachedDirPages(id storage.FileID, pages []storage.PhysPage) {
	e := k.dirs.entry(id)
	forged := e.ino.Clone()
	forged.Pages = pages
	e.ino = forged
	k.dirs.put(id, e)
}

// dirInsert adds a live entry naming ino to directory dir with one
// fs.dirop, failing if the name exists.
func (k *Kernel) dirInsert(dir storage.FileID, name string, ino storage.InodeNum) error {
	return k.dirOp(&dirOpReq{Dir: dir, Muts: []dirMut{{Name: name, Ino: ino}}})
}

// DirReadAttempts is dirReadAttempts.
const DirReadAttempts = dirReadAttempts

// Parked is parked: whether an open waits at a CSS for a writer slot.
var Parked = parked

// OpenForUpdate opens id for modification as a directory update does:
// the handle holds the writer slot until it is closed.
func (k *Kernel) OpenForUpdate(id storage.FileID) (*File, error) {
	f, _, _, err := k.openID(id, ModeModify, false, vclock.NoSite)
	return f, err
}

// A Script is the points one run of a test's script made, in order: the
// places where the cut tables interrupt it.
type Script []netsim.Point

// Record runs run under an observer of nw and returns its points.
func Record(nw *netsim.Network, run func()) Script {
	var s Script
	nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
		s = append(s, p)
		return netsim.FaultNone
	})
	defer nw.SetObserver(nil)
	run()
	return s
}

// Exchange is a request point of a script and its number among the
// script's requests on its link and method, from 1.
type Exchange struct {
	netsim.Point
	Nth int
}

// String names the exchange as the cut tables name their rows.
func (e Exchange) String() string {
	return fmt.Sprintf("%d->%d/%s#%d", e.From, e.To, e.Method, e.Nth)
}

// Exchanges returns the script's request points in order.
func (s Script) Exchanges() []Exchange {
	type link struct {
		from, to SiteID
		method   string
	}
	seen := map[link]int{}
	var exs []Exchange
	for _, p := range s {
		if p.Kind == netsim.PointRequest {
			k := link{p.From, p.To, p.Method}
			seen[k]++
			exs = append(exs, Exchange{p, seen[k]})
		}
	}
	return exs
}

// NthRequest names the nth request from `from` to to carrying method,
// for a cut of a run that was not recorded.
func NthRequest(from, to SiteID, method string, nth int) Exchange {
	return Exchange{netsim.Point{Kind: netsim.PointRequest, From: from, To: to, Method: method}, nth}
}

// A Cut interrupts a run of a script at one of its exchanges. It drops
// the request, or with Reply its reply, and the same message of each of
// the next Drop-1 retransmissions; it crashes a site at the first
// message it cuts; or both. A recorded exchange is found by its Seq,
// one named by NthRequest by its Nth. The observer touches the cut's
// state only at the exchange's own messages, so other goroutines may
// send while it runs.
type Cut struct {
	At    Exchange
	Reply bool   // cut at the reply to At's request
	Drop  int    // messages to drop: 8 is every transmission of a typed Call or Cast
	Crash SiteID // the site to crash at the first message cut, if any
}

// Run runs run with the cut installed on nw. A run that has gone
// another way by a recorded At's point is not cut, so the table's check
// that its cut hit says so.
func (c Cut) Run(nw *netsim.Network, run func()) {
	at := c.At
	seen, requests, replies := 0, max(c.Drop, 1), 0
	crash := c.Crash
	nw.SetObserver(func(p netsim.Point) netsim.FaultAction {
		switch {
		case p.Seq < at.Seq:
			return netsim.FaultNone
		case p.Seq == at.Seq && p != at.Point:
			requests = 0
			return netsim.FaultNone
		case p.Kind == netsim.PointRequest && p.From == at.From && p.To == at.To && p.Method == at.Method:
			if seen++; at.Seq == 0 && seen < at.Nth || requests == 0 {
				return netsim.FaultNone
			}
			requests--
			if c.Reply {
				replies++
				return netsim.FaultNone
			}
		case p.Kind == netsim.PointReply && p.From == at.To && p.To == at.From && p.Method == at.Method && replies > 0:
			replies--
		default:
			return netsim.FaultNone
		}
		if crash != 0 {
			nw.Crash(crash)
			crash = 0
		}
		switch {
		case c.Drop == 0:
			return netsim.FaultNone
		case p.Kind == netsim.PointReply:
			return netsim.FaultDropResponse
		}
		return netsim.FaultDropRequest
	})
	defer nw.SetObserver(nil)
	run()
}
