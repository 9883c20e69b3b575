package fs

// CachedPages reports how many pages the using-site cache holds, for
// the white-box assertions of the external test package.
func (k *Kernel) CachedPages() int { return k.cache.len() }
