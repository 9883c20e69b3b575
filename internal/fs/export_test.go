package fs

import (
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
