// Package vclock implements the version vectors LOCUS uses to detect
// mutual inconsistency among replicated file copies, following Parker,
// Popek et al., "Detection of Mutual Inconsistency in Distributed
// Systems" (IEEE TSE, 1983), cited as [PARK83] in the LOCUS paper.
//
// Each copy of a replicated object carries a vector counting, per
// originating site, how many updates that copy reflects. Comparing two
// vectors classifies the copies as identical, ancestor/descendant
// (one dominates), or in conflict (concurrent).
package vclock

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
)

// SiteID identifies a site (node) in the network. Site numbering starts
// at 1; 0 is reserved as "no site".
type SiteID int

// NoSite is the zero SiteID, used where a site is not applicable.
const NoSite SiteID = 0

// Ordering is the result of comparing two version vectors.
type Ordering int

const (
	// Equal means the two vectors are identical: the copies reflect
	// exactly the same set of updates.
	Equal Ordering = iota
	// Dominates means the receiver reflects a superset of the updates
	// in the argument; the receiver's copy is strictly newer.
	Dominates
	// Dominated means the argument reflects a superset of the updates
	// in the receiver; the receiver's copy is strictly older.
	Dominated
	// Concurrent means each vector has updates the other lacks: the
	// copies were modified in different partitions and are in conflict.
	Concurrent
)

// String returns a short human-readable name for the ordering.
func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Dominates:
		return "dominates"
	case Dominated:
		return "dominated"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// entry is one site's update count. The fields are unexported so that
// no package outside vclock can write to a vector.
type entry struct {
	site SiteID
	n    uint64
}

// VV is a version vector: for each site, the count of updates
// originated there which this copy reflects. It is a slice of entries
// sorted by ascending site with no zero counts, so two vectors denote
// the same history exactly when they are element-wise identical. A nil
// VV is a valid empty vector (no updates anywhere).
//
// A VV is immutable: no method writes through its receiver, Bump and
// Merge return a vector of their own, and the unexported entry fields
// keep every other package from writing one. A VV may therefore be
// shared freely between inodes, messages, caches and goroutines; there
// is never a reason to copy one.
type VV []entry

// New returns an empty version vector.
func New() VV { return VV{} }

// Copy returns v. Vectors are immutable, so the receiver is its own
// independent copy; the method remains for callers written against the
// earlier mutable representation.
func (v VV) Copy() VV { return v }

// Get returns the update count recorded for site s (zero if absent).
func (v VV) Get(s SiteID) uint64 {
	for _, e := range v {
		if e.site == s {
			return e.n
		}
	}
	return 0
}

// Bump returns a vector recording one more update originated at site s
// than v does. The receiver is unchanged.
func (v VV) Bump(s SiteID) VV {
	i := 0
	for i < len(v) && v[i].site < s {
		i++
	}
	if i < len(v) && v[i].site == s {
		out := make(VV, len(v))
		copy(out, v)
		out[i].n++
		return out
	}
	out := make(VV, len(v)+1)
	copy(out, v[:i])
	out[i] = entry{site: s, n: 1}
	copy(out[i+1:], v[i:])
	return out
}

// Compare classifies the relationship between v and o in one walk over
// the two sorted vectors.
func (v VV) Compare(o VV) Ordering {
	greater, less := false, false
	i, j := 0, 0
	for i < len(v) && j < len(o) {
		switch a, b := v[i], o[j]; {
		case a.site < b.site:
			greater = true
			i++
		case a.site > b.site:
			less = true
			j++
		default:
			if a.n > b.n {
				greater = true
			} else if a.n < b.n {
				less = true
			}
			i++
			j++
		}
	}
	if i < len(v) {
		greater = true
	}
	if j < len(o) {
		less = true
	}
	switch {
	case greater && less:
		return Concurrent
	case greater:
		return Dominates
	case less:
		return Dominated
	default:
		return Equal
	}
}

// Equal reports whether v and o record identical update histories.
func (v VV) Equal(o VV) bool { return v.Compare(o) == Equal }

// DominatesOrEqual reports whether v reflects every update o does.
// This is the "is at least as new" test used when a site offers to act
// as storage site for an open: it may serve only if its copy's vector
// dominates or equals the latest known vector.
func (v VV) DominatesOrEqual(o VV) bool {
	c := v.Compare(o)
	return c == Equal || c == Dominates
}

// Concurrent reports whether v and o are in conflict.
func (v VV) Concurrent(o VV) bool { return v.Compare(o) == Concurrent }

// Latest decides which of a file's copies is current: it returns the
// index of a vector that dominates or equals every vector in vs, and
// true. When no vector does, the copies are in conflict (§4.2), and it
// returns the index of a maximal vector and false; an empty vs is -1
// and false.
//
// The first pass moves to any vector that strictly dominates the one in
// hand, the second confirms that the one it ended on covers them all.
// If some vector covers every other, the first pass ends on it or on an
// equal vector whatever the order of vs — nothing strictly dominates
// it, and it strictly dominates anything else in hand when the pass
// reaches it — so the answer cannot depend on the order the copies were
// polled in.
func Latest(vs []VV) (int, bool) {
	if len(vs) == 0 {
		return -1, false
	}
	best := 0
	for i := 1; i < len(vs); i++ {
		if vs[i].Compare(vs[best]) == Dominates {
			best = i
		}
	}
	for i := range vs {
		if !vs[best].DominatesOrEqual(vs[i]) {
			return best, false
		}
	}
	return best, true
}

// Merge returns the least upper bound of v and o: the element-wise
// maximum. Neither input is changed. Reconciliation stamps the
// surviving copy with the merge of the conflicting vectors (optionally
// bumped at the reconciling site) so that the conflict is not
// re-detected.
func (v VV) Merge(o VV) VV {
	out := make(VV, 0, len(v)+len(o))
	i, j := 0, 0
	for i < len(v) && j < len(o) {
		switch a, b := v[i], o[j]; {
		case a.site < b.site:
			out = append(out, a)
			i++
		case a.site > b.site:
			out = append(out, b)
			j++
		default:
			if b.n > a.n {
				a = b
			}
			out = append(out, a)
			i++
			j++
		}
	}
	out = append(out, v[i:]...)
	return append(out, o[j:]...)
}

// Sites returns the sites with a nonzero entry, in ascending order.
func (v VV) Sites() []SiteID {
	out := make([]SiteID, len(v))
	for i, e := range v {
		out[i] = e.site
	}
	return out
}

// Total returns the total number of updates recorded across all sites.
func (v VV) Total() uint64 {
	var t uint64
	for _, e := range v {
		t += e.n
	}
	return t
}

// String renders the vector as "{s1:n1 s2:n2}" with sites ascending.
func (v VV) String() string {
	b := make([]byte, 0, 2+8*len(v))
	b = append(b, '{')
	for i, e := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(e.site), 10)
		b = append(b, ':')
		b = strconv.AppendUint(b, e.n, 10)
	}
	return string(append(b, '}'))
}

// ErrCorrupt reports wire bytes that are not the encoding of a vector.
var ErrCorrupt = errors.New("vclock: corrupt encoded vector")

// EncodedLen returns the number of bytes AppendBinary appends for v.
func (v VV) EncodedLen() int {
	n := uvarintLen(uint64(len(v)))
	for _, e := range v {
		n += uvarintLen(uint64(e.site)) + uvarintLen(e.n)
	}
	return n
}

// AppendBinary appends v's wire form to b: a uvarint entry count, then
// one (site, count) uvarint pair per entry, sites ascending.
func (v VV) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, e := range v {
		b = binary.AppendUvarint(b, uint64(e.site))
		b = binary.AppendUvarint(b, e.n)
	}
	return b
}

// uvarintLen is the length of x as binary.AppendUvarint writes it.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Decoder decodes many vectors out of a few shared backing arrays, so
// that a directory's tombstones cost a handful of allocations rather
// than one each. The zero value is ready to use.
type Decoder struct {
	free  VV  // unused tail of the newest backing array
	chunk int // its length in entries; each new array doubles it
}

// minChunk is the smallest backing array a Decoder allocates, in
// entries: room for a handful of replica-width vectors, so a small
// directory with one tombstone does not pay for a large one's arena.
const minChunk = 16

// Decode parses one vector in AppendBinary's form from the front of b
// and returns it with the bytes that follow. Anything AppendBinary
// could not have written — a truncated pair, a zero count, sites not
// strictly ascending, a site beyond SiteID's range, an entry count the
// bytes present cannot hold — is ErrCorrupt; the count is checked
// before a backing array is sized from it.
func (d *Decoder) Decode(b []byte) (VV, []byte, error) {
	n, k := binary.Uvarint(b)
	// Every entry is at least two bytes.
	if k <= 0 || n > uint64(len(b)-k)/2 {
		return nil, nil, ErrCorrupt
	}
	b = b[k:]
	if n == 0 {
		return nil, b, nil
	}
	if uint64(len(d.free)) < n {
		d.chunk = max(minChunk, 2*d.chunk, int(n))
		d.free = make(VV, d.chunk)
	}
	v := d.free[:n:n]
	d.free = d.free[n:]
	for i := range v {
		s, k := binary.Uvarint(b)
		if k <= 0 {
			return nil, nil, ErrCorrupt
		}
		b = b[k:]
		c, k := binary.Uvarint(b)
		if k <= 0 || c == 0 {
			return nil, nil, ErrCorrupt
		}
		b = b[k:]
		site := SiteID(s)
		if site < 0 || uint64(site) != s || (i > 0 && site <= v[i-1].site) {
			return nil, nil, ErrCorrupt
		}
		v[i] = entry{site: site, n: c}
	}
	return v, b, nil
}
