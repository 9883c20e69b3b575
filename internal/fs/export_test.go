package fs

import "repro/internal/storage"

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

// LookInternal is lookInternal, for comparison with OpenID(ModeInternal).
func (k *Kernel) LookInternal(id storage.FileID) (*storage.Inode, SiteID, error) {
	return k.lookInternal(id)
}
