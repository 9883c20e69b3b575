package fs

import (
	"repro/internal/netsim"
	"repro/internal/storage"
	"repro/internal/vclock"
)

// The kernel-to-kernel messages. The protocols are the paper's
// specialized exchanges (§2.3.3–§2.3.7): no general-purpose RPC layers,
// no extra acknowledgements. Each message is declared once, beside its
// structs; AtMostOnce marks the requests that change remote state and
// must not run twice when retransmitted. The rest — reads of immutable
// snapshot pages, version probes, the pull protocol, the best-effort
// revoke (revoking twice leaves the same state) — are safe to replay,
// and exempting them keeps page payloads out of the dedup tables.

// mOpen is US → CSS: the OPEN request of Figure 2. It installs CSS
// lock-table and SS serving state.
var mOpen = netsim.Method[openReq, openResp]{Name: "fs.open", AtMostOnce: true}

type openReq struct {
	ID   storage.FileID
	Mode OpenMode
	US   SiteID
	// Serial is the using site's registration serial for a modify open.
	// (US, Serial) names this open's writer registration in the CSS lock
	// table and the SS serving state, so a close or revoke that outlives
	// the open cannot be taken for its successor from the same site.
	Serial uint64
	// USVV is the version vector of the copy stored at the US, if any
	// (the first optimization of §2.3.3: "in its message to the CSS,
	// the US includes the version vector of the copy of the file it
	// stores").
	USVV vclock.VV
	// Expand marks an open that is Open's search's look at the file: a
	// hidden directory to expand (§2.4.1) is served as an internal open.
	Expand bool
	// For is the site whose fs.dirop the CSS opens a directory for (zero
	// for any other open): a wait for the writer slot ends when it, like
	// the US, leaves the partition.
	For SiteID
}

type openResp struct {
	SS SiteID
	// Ino is the storage site's committed inode itself (nil when the US
	// is its own SS and reads its own): frozen, so the reply, a replay of
	// it and every handle built from it may share it. A modify open
	// Clones it for its in-core inode.
	Ino *storage.Inode
	// ServeReady reports that the serving state already exists at the
	// SS (the CSS installed it, either at itself or via the SS poll);
	// only when the CSS selects the US itself must the US install its
	// own serving state.
	ServeReady bool
	// Delegated piggybacks a read delegation on a read open's reply: the
	// US may re-open, read, and close this file locally without
	// contacting the CSS for as long as it holds the delegation
	// (lease.go).
	Delegated bool
}

// mSSOpen is CSS → SS: "request for storage site" of Figure 2. It
// installs SS serving state.
var mSSOpen = netsim.Method[ssOpenReq, ssOpenResp]{Name: "fs.ssopen", AtMostOnce: true}

type ssOpenReq struct {
	ID     storage.FileID
	Mode   OpenMode
	US     SiteID
	Serial uint64 // openReq.Serial
	// NeedVV is the latest version known to the CSS; the polled site
	// refuses to serve if its copy is older (§2.3.3: "If they do not
	// yet store the latest version, they refuse to act as a storage
	// site").
	NeedVV vclock.VV
	// Delegated marks the poll of a read open that will be answered
	// with a read delegation: the SS returns its inode snapshot but
	// installs no reader serving state, because the delegate reads
	// committed pages (which need none) and closes locally.
	Delegated bool
}

type ssOpenResp struct {
	Ino *storage.Inode // the committed inode, as openResp.Ino
}

// RAMax caps the number of extra pages a storage site piggybacks on one
// read response (the streaming-readahead window limit).
const RAMax = 8

// mRead is US → SS: "request for page x of file y".
var mRead = netsim.Method[readReq, readResp]{Name: "fs.read"}

type readReq struct {
	ID   storage.FileID
	Page storage.PageNo
	// Incore asks for the writer's in-core (shadowed) state; only the
	// US holding the modify open sends this.
	Incore bool
	// Readahead asks the SS to piggyback up to this many following
	// logical pages on the response ("readahead is useful in the case
	// of sequential behavior, both at the SS, as well as across the
	// network" — §2.3.3). The US grows it while the access pattern
	// stays sequential and resets it on a seek; the SS clamps it to
	// RAMax and to end of file.
	Readahead int
	// Hint is "a guess as to where the incore inode information is
	// stored at the SS" (§2.3.3); the simulation keys by FileID, so the
	// hint is carried for fidelity but not needed for correctness.
	Hint int
}

// readResp carries pages by reference, never copied. From handleRead,
// Data and Extra alias the storage site's committed page buffers, which
// shadow paging never rewrites and the shared-page tracking never
// recycles: the US page cache may retain them without copying, and must
// never Put them. From handleReadPhys, Data is a pooled copy the
// response owns: the receiver adopts it or Puts it.
type readResp struct {
	Data []byte
	Size int64 // current file size at the SS
	// VV is the committed version vector the page was served from (nil
	// for in-core reads); the US cache tags entries with it.
	VV vclock.VV
	// Extra carries logical pages Page+1, Page+2, ... when readahead
	// was requested; it never extends past end of file.
	Extra [][]byte
}

// WireSize makes page transfers charge realistic byte counts.
func (r *readResp) WireSize() int {
	n := len(r.Data) + 32
	for _, e := range r.Extra {
		n += len(e)
	}
	return n
}

// mWrite is US → SS (one-way): "Write logical page x in file y", with
// absolute page content.
var mWrite = netsim.OneWay[writeReq]{Name: "fs.write"}

type writeReq struct {
	ID   storage.FileID
	Page storage.PageNo
	Data []byte
	// Size is the file size after this write as seen by the US.
	Size int64
}

// WireSize charges the page payload.
func (w *writeReq) WireSize() int { return len(w.Data) + 32 }

// mCommit is US → SS: commit or abort the in-core changes. A commit
// bumps the version vector and installs the shadow inode.
var mCommit = netsim.Method[commitReq, commitResp]{Name: "fs.commit", AtMostOnce: true}

type commitReq struct {
	ID    storage.FileID
	US    SiteID
	Abort bool
}

// commitResp is the inode the commit installed (for an abort, the one it
// kept), shared and frozen: a directory's updater caches its snapshot
// under it (dirCacheEntry).
type commitResp struct {
	Ino *storage.Inode
}

// mClose is US → SS: first message of the 4-message close protocol. It
// tears down serving state, and commits first when the handle has
// changes outstanding ("closing a file commits it", §2.3.6).
var mClose = netsim.Method[closeReq, netsim.Ack]{Name: "fs.close", AtMostOnce: true}

type closeReq struct {
	ID   storage.FileID
	US   SiteID
	Mode OpenMode
	// Serial is the closing modify open's registration serial; a close
	// for any other registration is ignored (its state was already
	// reclaimed and possibly re-acquired).
	Serial uint64
	// Commit asks the SS to commit the writer's changes before it tears
	// down: the close of a modify handle with dirty pages.
	Commit bool
}

// mSSClose is SS → CSS: second message of the close protocol. It
// releases the CSS lock entry.
var mSSClose = netsim.Method[ssCloseReq, netsim.Ack]{Name: "fs.ssclose", AtMostOnce: true}

type ssCloseReq struct {
	ID     storage.FileID
	SS     SiteID
	US     SiteID
	Mode   OpenMode
	Serial uint64 // closeReq.Serial
	// VV is the SS's committed version vector at close time. Carrying
	// it on the close protocol is what lets the CSS "alter state data
	// which might affect its next synchronization policy decision"
	// (§2.3.3) *before* the writer lock is released — otherwise a
	// racing open could be granted against a stale latest-version
	// record (the reopen race the paper's close-protocol footnote
	// describes).
	VV vclock.VV
	// Sites is the storage-site list at close time (replication may
	// have changed during the open).
	Sites []SiteID
	// Notes are the CSS's notes of the commit the close made (closeReq.
	// Commit), which the CSS applies before it releases the writer: the
	// fs.propnotify the commit would have sent it rides the close.
	Notes *propNotify
}

// WireSize charges the notes an fs.ssclose carries on top of the
// allowance of an unsized payload, so that a close that carries none
// costs what it always did.
func (r *ssCloseReq) WireSize() int { return netsim.DefaultWireSize + r.Notes.WireSize() }

// mRecallWriter is CSS/SS → US: recall one writer registration
// (lock-table validation, §5.6 applied on demand). The using site
// answers whether the registration is still live.
var mRecallWriter = netsim.Method[recallWriterReq, recallWriterResp]{Name: "fs.recallwriter", AtMostOnce: true}

type recallWriterReq struct {
	ID storage.FileID
	// Serial names the registration at the using site (openReq.Serial);
	// every other registration of the file there, a successor from the
	// same site included, is none of the recall's business.
	Serial uint64
}

type recallWriterResp struct {
	// Live reports the registration's open still in flight or a modify
	// handle carrying it still open: the recall is refused, and the
	// registration gives its slot back when it ends.
	Live bool
	// VV/Sites are the holder's stored copy's version and storage-site
	// list: the analogue of the close protocol's VV piggyback, folded
	// into the CSS lock table before the slot is reclaimed.
	VV    vclock.VV
	Sites []SiteID
}

// mRevokeServe is CSS → SS: discard serving state for a writer whose
// handle is gone (its close was lost to the network).
var mRevokeServe = netsim.Method[revokeServeReq, netsim.Ack]{Name: "fs.revokeserve"}

type revokeServeReq struct {
	ID storage.FileID
	// US and Serial name the writer registration whose serving state is
	// to be discarded; a revoke for any other is ignored (the state was
	// already reclaimed and possibly re-acquired, even by the same site).
	US     SiteID
	Serial uint64
}

// mLeaseRevoke is CSS → delegate: one callback of a batched round
// demanding a read delegation back before a writer proceeds (the
// Lustre-style intent lock revocation).
var mLeaseRevoke = netsim.Method[leaseRevokeReq, netsim.Ack]{Name: "fs.leaserevoke", AtMostOnce: true}

type leaseRevokeReq struct {
	ID storage.FileID
}

// mDirOp is US → CSS: one namespace operation (§2.3.4: "no system call
// does more than just enter, delete, or change an entry within a
// directory"). The CSS applies it whole: the entry changes to one
// directory, or two for a rename across directories, each in one update,
// one shadow-page commit (§2.3.6), and the named file's link-count change,
// so the US opens neither the directories nor the file, nor ships their
// pages.
var mDirOp = netsim.Method[dirOpReq, dirOpResp]{Name: "fs.dirop", AtMostOnce: true}

type dirOpReq struct {
	Dir  storage.FileID
	Muts []dirMut
	// To and ToMuts are the second directory of a rename across
	// directories and its entry changes; To is zero otherwise.
	To     storage.FileID
	ToMuts []dirMut
	// Ino and Nlink are the named file's inode change: its link count
	// raised by one for a link (Nlink 1), lowered by one for an unlink
	// (Nlink -1), which deletes the file when no link is left. The
	// unlink's tombstone records the version that change commits (Muts'
	// DelVV is the CSS's to fill). Nlink 0 changes no inode.
	Ino   storage.InodeNum
	Nlink int
}

// dirMut is one entry change: an insert of Name naming Ino (ErrExists
// on a live name), or, Remove set, a tombstone of Name recording DelVV
// (ErrNotFound unless Name names Ino, when Ino is set).
type dirMut struct {
	Name   string
	Ino    storage.InodeNum
	Remove bool
	DelVV  vclock.VV
}

// dirOpResp names the versions the update went between, not the
// content: the US re-applies its own mutations to a cached snapshot at
// Prev and caches the result under Ino, the inode the commit installed
// at SS (shared and frozen). (A snapshot in the reply would be pinned by
// the at-most-once table for as long as the reply is.) DelVV is the
// version an unlink's tombstone records, which the CSS chose; To is the
// second directory's update of a rename across directories.
type dirOpResp struct {
	Prev  vclock.VV
	Ino   *storage.Inode
	SS    SiteID
	DelVV vclock.VV
	To    *dirOpResp
}

// mCreate is US → CSS: create a new file and enter it in its parent
// directory (§2.3.7). The CSS checks the name under the parent's modify
// open, has the birth pack allocate the inode and inserts the entry: one
// exchange from the US.
var mCreate = netsim.Method[createReq, createResp]{Name: "fs.create", AtMostOnce: true}

type createReq struct {
	Type  storage.FileType
	US    SiteID
	Owner string
	Mode  uint16
	// NCopies is the user settable number-of-copies variable (Cred), 0
	// for unset: the CSS takes the minimum of it and the parent
	// directory's replication factor (§2.3.7).
	NCopies int
	// Parent and Name are the directory entry the new file gets. Initial
	// placement is constrained to the parent's storage sites (§2.3.7
	// rule a).
	Parent storage.FileID
	Name   string
	// Serial registers the creating US as the new file's writer (see
	// openReq.Serial).
	Serial uint64
}

type createResp struct {
	ID storage.FileID
	SS SiteID
	// Ino is the inode the birth pack committed (ssCreateResp.Ino passed
	// on): the creating US Clones it for its in-core inode.
	Ino *storage.Inode
	// Dir is the parent directory's update that entered the name.
	Dir dirOpResp
}

// mSSCreate is CSS → SS: allocate the inode at the birth pack and
// durably commit it.
var mSSCreate = netsim.Method[ssCreateReq, ssCreateResp]{Name: "fs.sscreate", AtMostOnce: true}

type ssCreateReq struct {
	FG    storage.FilegroupID
	Type  storage.FileType
	Owner string
	Mode  uint16
	Sites []SiteID
	US    SiteID
	// Serial is createReq.Serial.
	Serial uint64
}

type ssCreateResp struct {
	// Ino is the literal handleSSCreate committed a copy of, which
	// nothing writes again: read-only to whoever the reply reaches. It
	// is the birth's commit note too (commitNote), which the CSS sends
	// on with the entry's (handleCreate): the birth pack casts none.
	Ino *storage.Inode
}

// mPropNotify is SS → {other packs, CSS} (one-way): new versions exist.
// A pack whose copy is out of date queues a pull of it, but for a
// delete, whose tombstone the note carries and the pack commits itself.
// The message is a list of commit notes, chained by Next in commit
// order: a create's or an unlink's commits at the CSS reach each site in
// one message (outbox); any other commit's note travels alone.
var mPropNotify = netsim.OneWay[propNotify]{Name: "fs.propnotify"}

// WireSize charges each note of the message the allowance of an unsized
// payload, which a note sent alone always cost, so that a message of one
// note costs what it did, and each note more adds its payload but no
// header.
func (note *propNotify) WireSize() int {
	size := 0
	for ; note != nil; note = note.Next {
		size += netsim.DefaultWireSize
	}
	return size
}

// propNotify is one commit note; a message is the chain of notes from
// its first.
type propNotify struct {
	ID storage.FileID
	VV vclock.VV
	// Origin is the committing SS holding the new version.
	Origin SiteID
	// Pages lists the modified logical pages, or nil meaning the whole
	// file (§2.3.6: the commit message "can indicate ... which explicit
	// logical pages were modified"); an empty list means that no page
	// changed, only the inode's descriptive information.
	Pages []storage.PageNo
	// Sites is the file's storage-site list so packs that should hold
	// a new replica know to pull it.
	Sites []SiteID
	// Tomb is the new version when it is a delete: the inode the origin
	// committed a copy of, which nothing writes again, shared by pointer
	// as pullOpenResp.Ino is. It rides in the per-message default
	// allowance, so a delete's note costs what any other note does.
	Tomb *storage.Inode
	// Next is the message's next note, nil after its last.
	Next *propNotify
}

// PullWindow caps the number of physical pages one bulk-pull message
// carries (the fs.pullopen piggyback and each fs.pullpages exchange).
const PullWindow = 8

// mPullOpen is puller → origin: internal open returning a committed
// inode snapshot for propagation.
var mPullOpen = netsim.Method[pullOpenReq, pullOpenResp]{Name: "fs.pullopen"}

type pullOpenReq struct {
	ID storage.FileID
	// Window asks the origin to piggyback the first min(Window,
	// PullWindow) data pages of the snapshot on the response — the bulk
	// fast path, which collapses the first pull round trip into the
	// open itself. Zero means inode only: the per-page protocol of
	// Features.SerialPull.
	Window int
	// Need optionally restricts the piggybacked window to these logical
	// pages (the commit notification's modified-page list); nil means
	// any data page. Pages the puller turns out to lack beyond this
	// list are fetched by the follow-up windows.
	Need []storage.PageNo
}

// pullOpenResp's First holds pooled copies of the origin's committed
// pages, made for this response, which owns them; the origin keeps no
// reference and never writes them. The receiver owns them from delivery:
// the puller's container adopts each page it installs
// (storage.Container.AdoptPage) and the rest go back with
// storage.PutPageBuf. That needs every delivered response to be a fresh
// one: fs.pullopen must stay out of the at-most-once class, whose dedup
// window replays a cached reply (TestMethodTable).
type pullOpenResp struct {
	// Ino is the origin's committed inode itself, physical page table
	// included: frozen (storage.Inode), so the puller reads it in place
	// and Clones it for the copy it installs.
	Ino *storage.Inode
	// FirstPhys/First are the piggybacked first window: First[i] holds
	// the contents of physical page FirstPhys[i] of the snapshot's page
	// table. Empty when no window was requested (or the file is a
	// tombstone).
	FirstPhys []storage.PhysPage
	First     [][]byte
}

// WireSize charges only the piggybacked window (page bytes plus a
// 32-byte per-page descriptor, like readResp); the inode snapshot
// itself rides in the per-message default allowance exactly as it did
// before the bulk protocol, so the windowless exchange stays
// byte-identical to the legacy pin.
func (r *pullOpenResp) WireSize() int {
	n := 0
	for _, p := range r.First {
		n += len(p) + 32
	}
	return n
}

// mReadPhys is puller → origin: read an immutable physical page of
// the snapshot (shadow paging makes this torn-write-free).
var mReadPhys = netsim.Method[readPhysReq, readResp]{Name: "fs.readphys"}

type readPhysReq struct {
	FG   storage.FilegroupID
	Phys storage.PhysPage
}

// mPullPages is puller → origin: read a window of up to PullWindow
// immutable physical pages of the snapshot in one exchange (the
// bulk half of pipelined propagation).
var mPullPages = netsim.Method[pullPagesReq, pullPagesResp]{Name: "fs.pullpages"}

type pullPagesReq struct {
	FG storage.FilegroupID
	// Phys names the snapshot physical pages of this window, at most
	// PullWindow of them.
	Phys []storage.PhysPage
}

// pullPagesResp's Pages are pooled copies the response owns and the
// receiver adopts or Puts, as pullOpenResp's First.
type pullPagesResp struct {
	// Pages[i] holds the contents of request page Phys[i].
	Pages [][]byte
}

// WireSize makes bulk page windows charge realistic byte counts.
func (r *pullPagesResp) WireSize() int {
	n := 0
	for _, p := range r.Pages {
		n += len(p) + 32
	}
	return n
}

// mSetAttr is US → SS (one-way): descriptive inode change, absolute
// values.
var mSetAttr = netsim.OneWay[setAttrReq]{Name: "fs.setattr"}

// setAttrReq updates descriptive inode information in the writer's
// in-core inode (ownership, permissions, link count, deletion). It is
// the "just inode information ... changed and no data" case of §2.3.6.
type setAttrReq struct {
	ID storage.FileID
	// Nlink, Mode: negative means unchanged.
	Nlink int
	Mode  int32
	// Owner: empty means unchanged.
	Owner string
	// SetDeleted marks the inode as a delete tombstone.
	SetDeleted bool
	// Sites: nil means unchanged (replication factor changes).
	Sites []SiteID
	// Annotations: nil means unchanged; entries merge into the inode's
	// annotation map (device bindings, context labels).
	Annotations map[string]string
}

// mGetVV asks a pack for its committed version vector of a file
// (lock-table rebuild, garbage collection, reconciliation).
var mGetVV = netsim.Method[getVVReq, getVVResp]{Name: "fs.getvv"}

type getVVReq struct {
	ID storage.FileID
}

type getVVResp struct {
	Has      bool
	VV       vclock.VV
	Deleted  bool
	Conflict bool
	Sites    []SiteID
	Type     storage.FileType
}
