package vclock

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// mk builds a vector from (site, count) pairs in any order; zero counts
// are dropped, as the representation requires.
func mk(pairs ...uint64) VV {
	var v VV
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i+1] > 0 {
			v = append(v, entry{site: SiteID(pairs[i]), n: pairs[i+1]})
		}
	}
	sort.Slice(v, func(i, j int) bool { return v[i].site < v[j].site })
	return v
}

func TestEmptyVectorsEqual(t *testing.T) {
	t.Parallel()
	a, b := New(), New()
	if got := a.Compare(b); got != Equal {
		t.Fatalf("Compare(empty, empty) = %v, want Equal", got)
	}
	var nilVV VV
	if got := nilVV.Compare(b); got != Equal {
		t.Fatalf("Compare(nil, empty) = %v, want Equal", got)
	}
	if got := nilVV.Bump(2); got.Get(2) != 1 || nilVV != nil {
		t.Fatalf("nil.Bump(2) = %v (receiver now %v)", got, nilVV)
	}
}

func TestBumpDominates(t *testing.T) {
	t.Parallel()
	a := New()
	b := a.Bump(1)
	if got := b.Compare(a); got != Dominates {
		t.Fatalf("bumped.Compare(orig) = %v, want Dominates", got)
	}
	if got := a.Compare(b); got != Dominated {
		t.Fatalf("orig.Compare(bumped) = %v, want Dominated", got)
	}
}

func TestConcurrentDetection(t *testing.T) {
	t.Parallel()
	// The paper's scenario (§4.2): f replicated at S1 and S2, partition,
	// each modifies its copy -> conflict at merge.
	base := New().Bump(1)
	f1 := base.Bump(1) // modified at S1 during partition
	f2 := base.Bump(2) // modified at S2 during partition
	if !f1.Concurrent(f2) {
		t.Fatalf("f1=%v f2=%v: want concurrent", f1, f2)
	}
	// One-sided modification is NOT a conflict, just staleness.
	if got := f1.Compare(base); got != Dominates {
		t.Fatalf("f1 vs base = %v, want Dominates", got)
	}
}

func TestCompareTable(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		a, b VV
		want Ordering
	}{
		{"identical", mk(1, 2, 2, 3), mk(1, 2, 2, 3), Equal},
		{"superset-count", mk(1, 3, 2, 3), mk(1, 2, 2, 3), Dominates},
		{"subset-count", mk(1, 2), mk(1, 5), Dominated},
		{"extra-site", mk(1, 1, 2, 1), mk(1, 1), Dominates},
		{"missing-site", mk(1, 1), mk(1, 1, 3, 4), Dominated},
		{"cross", mk(1, 2, 2, 1), mk(1, 1, 2, 2), Concurrent},
		{"disjoint-sites", mk(1, 1), mk(2, 1), Concurrent},
		{"interleaved-sites", mk(1, 1, 3, 1), mk(2, 1), Concurrent},
		{"nil-vs-empty", nil, New(), Equal},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.a.Compare(c.b); got != c.want {
				t.Errorf("%v.Compare(%v) = %v, want %v", c.a, c.b, got, c.want)
			}
		})
	}
}

func TestMergeUpperBound(t *testing.T) {
	t.Parallel()
	a := mk(1, 3, 2, 1)
	b := mk(2, 4, 3, 2)
	m := a.Merge(b)
	want := mk(1, 3, 2, 4, 3, 2)
	if !m.Equal(want) {
		t.Fatalf("Merge = %v, want %v", m, want)
	}
	if !m.DominatesOrEqual(a) || !m.DominatesOrEqual(b) {
		t.Fatalf("merge %v must dominate both inputs %v %v", m, a, b)
	}
	// Inputs unchanged.
	if a.Get(3) != 0 || b.Get(1) != 0 {
		t.Fatalf("Merge mutated inputs: a=%v b=%v", a, b)
	}
}

func TestLatest(t *testing.T) {
	t.Parallel()
	// Two copies updated apart, and a third that has seen both: every
	// order of polling them must pick the third.
	a, b, c := mk(1, 1), mk(2, 1), mk(1, 1, 2, 1, 3, 1)
	for _, order := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		vs := make([]VV, 3)
		for i, j := range order {
			vs[i] = []VV{a, b, c}[j]
		}
		i, ok := Latest(vs)
		if !ok || i < 0 || !vs[i].Equal(c) {
			t.Errorf("Latest(%v) = %d, %v; want the index of %v, true", vs, i, ok, c)
		}
	}
	cases := []struct {
		name   string
		vs     []VV
		wantOK bool
	}{
		{"concurrent pair", []VV{a, b}, false},
		{"equal copies", []VV{mk(1, 2), mk(1, 2), mk(1, 2)}, true},
		{"stale then current", []VV{mk(1, 1), mk(1, 2)}, true},
		{"single copy", []VV{b}, true},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		i, ok := Latest(tc.vs)
		if ok != tc.wantOK {
			t.Errorf("%s: Latest(%v) = %d, %v; want ok=%v", tc.name, tc.vs, i, ok, tc.wantOK)
		}
		if len(tc.vs) == 0 && i != -1 {
			t.Errorf("%s: Latest of no vectors = %d, want -1", tc.name, i)
		}
	}
}

// TestPropertyLatestOrderIndependent checks Latest against the
// definition — some vector dominates or equals all the others — and
// that reordering the vectors never changes which version it picks.
func TestPropertyLatestOrderIndependent(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := make([]VV, 1+r.Intn(5))
		for i := range vs {
			vs[i] = randomVV(r)
		}
		want := -1
		for i := range vs {
			covers := true
			for j := range vs {
				covers = covers && vs[i].DominatesOrEqual(vs[j])
			}
			if covers {
				want = i
				break
			}
		}
		i, ok := Latest(vs)
		if ok != (want >= 0) || ok && !vs[i].Equal(vs[want]) {
			return false
		}
		shuffled := append([]VV(nil), vs...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		j, ok2 := Latest(shuffled)
		return ok2 == ok && (!ok || shuffled[j].Equal(vs[i]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBumpLeavesReceiverAlone(t *testing.T) {
	t.Parallel()
	a := mk(1, 1)
	b := a.Copy()
	if got := b.Bump(1); got.Get(1) != 2 {
		t.Fatalf("Bump = %v, want {1:2}", got)
	}
	if a.Get(1) != 1 || b.Get(1) != 1 {
		t.Fatalf("Bump wrote through its receiver: a=%v b=%v", a, b)
	}
}

func TestSitesAndTotalAndString(t *testing.T) {
	t.Parallel()
	v := mk(3, 2, 1, 1, 7, 5)
	sites := v.Sites()
	if len(sites) != 3 || sites[0] != 1 || sites[1] != 3 || sites[2] != 7 {
		t.Fatalf("Sites = %v, want [1 3 7]", sites)
	}
	if v.Total() != 8 {
		t.Fatalf("Total = %d, want 8", v.Total())
	}
	if got, want := v.String(), "{1:1 3:2 7:5}"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got, want := fmt.Sprint(VV(nil), New()), "{} {}"; got != want {
		t.Fatalf("empty vectors print %q, want %q", got, want)
	}
}

// randomVV builds a bounded random vector for property tests.
func randomVV(r *rand.Rand) VV {
	var v VV
	for n := r.Intn(5); n > 0; n-- {
		s := SiteID(1 + r.Intn(4))
		for c := r.Intn(4); c > 0; c-- {
			v = v.Bump(s)
		}
	}
	return v
}

func TestPropertyMergeIsLUB(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVV(r), randomVV(r)
		m := a.Merge(b)
		if !m.DominatesOrEqual(a) || !m.DominatesOrEqual(b) {
			return false
		}
		// Least: any vector dominating both must dominate the merge.
		c := a.Merge(b).Merge(randomVV(r))
		return c.DominatesOrEqual(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMergeCommutativeAssociativeIdempotent(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomVV(r), randomVV(r), randomVV(r)
		if !a.Merge(b).Equal(b.Merge(a)) {
			return false
		}
		if !a.Merge(b).Merge(c).Equal(a.Merge(b.Merge(c))) {
			return false
		}
		return a.Merge(a).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCompareAntisymmetry(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVV(r), randomVV(r)
		switch a.Compare(b) {
		case Equal:
			return b.Compare(a) == Equal
		case Dominates:
			return b.Compare(a) == Dominated
		case Dominated:
			return b.Compare(a) == Dominates
		case Concurrent:
			return b.Compare(a) == Concurrent
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDominancePartialOrder(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomVV(r), randomVV(r), randomVV(r)
		// Reflexive.
		if !a.DominatesOrEqual(a) {
			return false
		}
		// Transitive.
		if a.DominatesOrEqual(b) && b.DominatesOrEqual(c) && !a.DominatesOrEqual(c) {
			return false
		}
		// Antisymmetric.
		if a.DominatesOrEqual(b) && b.DominatesOrEqual(a) && !a.Equal(b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBumpStrictlyIncreases(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomVV(r)
		b := a.Bump(SiteID(1 + r.Intn(4)))
		return b.Compare(a) == Dominates
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// mapVV is the map-backed version vector this package used before the
// slice representation, kept verbatim as the oracle the model test
// compares against. Its Bump mutates the receiver, as it always did.
type mapVV map[SiteID]uint64

func (v mapVV) Copy() mapVV {
	c := make(mapVV, len(v))
	for s, n := range v {
		c[s] = n
	}
	return c
}

func (v mapVV) Get(s SiteID) uint64 { return v[s] }

func (v mapVV) Bump(s SiteID) mapVV {
	v[s]++
	return v
}

func (v mapVV) Compare(o mapVV) Ordering {
	greater, less := false, false
	for s, n := range v {
		m := o[s]
		if n > m {
			greater = true
		} else if n < m {
			less = true
		}
	}
	for s, m := range o {
		if _, ok := v[s]; !ok && m > 0 {
			less = true
		}
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

func (v mapVV) Merge(o mapVV) mapVV {
	m := v.Copy()
	for s, n := range o {
		if n > m[s] {
			m[s] = n
		}
	}
	return m
}

func (v mapVV) Sites() []SiteID {
	out := make([]SiteID, 0, len(v))
	for s, n := range v {
		if n > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (v mapVV) Total() uint64 {
	var t uint64
	for _, n := range v {
		t += n
	}
	return t
}

func (v mapVV) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, s := range v.Sites() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", s, v[s])
	}
	b.WriteByte('}')
	return b.String()
}

// modelVec is one vector of the model test: the value under test, the
// oracle's value, and a private copy of the entries the value had when
// it was returned.
type modelVec struct {
	v      VV
	oracle mapVV
	snap   []entry
}

// TestModelAgainstMapOracle drives the slice vector and the map oracle
// with the same seeded sequence of operations and demands identical
// answers, a well-formed representation, and immutability: no vector
// changes after any later Bump or Merge on it or on a vector derived
// from it. That last property is what makes Copy the identity.
func TestModelAgainstMapOracle(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Width 0 leaves only the empty vector to exercise.
		universe := make([]SiteID, r.Intn(9))
		for i := range universe {
			universe[i] = SiteID(1 + r.Int63n(1<<31))
		}
		site := func() SiteID {
			if len(universe) == 0 || r.Intn(8) == 0 {
				return SiteID(1 + r.Int63n(1<<31)) // usually absent
			}
			return universe[r.Intn(len(universe))]
		}
		pool := []modelVec{{v: nil, oracle: mapVV{}}, {v: New(), oracle: mapVV{}}}
		add := func(v VV, oracle mapVV) {
			for i := range v {
				if v[i].n == 0 || (i > 0 && v[i-1].site >= v[i].site) {
					t.Fatalf("seed %d: malformed vector %v", seed, []entry(v))
				}
			}
			pool = append(pool, modelVec{v: v, oracle: oracle, snap: append([]entry(nil), v...)})
		}
		pick := func() modelVec { return pool[r.Intn(len(pool))] }
		for step := 0; step < 300; step++ {
			a, b := pick(), pick()
			switch op := r.Intn(5); {
			case op == 0 && len(universe) > 0:
				s := universe[r.Intn(len(universe))]
				add(a.v.Bump(s), a.oracle.Copy().Bump(s))
			case op == 1:
				add(a.v.Merge(b.v), a.oracle.Merge(b.oracle))
			case op == 2:
				want := a.oracle.Compare(b.oracle)
				if got := a.v.Compare(b.v); got != want {
					t.Fatalf("seed %d: %v.Compare(%v) = %v, oracle %v", seed, a.v, b.v, got, want)
				}
				if a.v.Equal(b.v) != (want == Equal) || a.v.Concurrent(b.v) != (want == Concurrent) ||
					a.v.DominatesOrEqual(b.v) != (want == Equal || want == Dominates) {
					t.Fatalf("seed %d: predicates disagree with Compare = %v on %v, %v", seed, want, a.v, b.v)
				}
			case op == 3:
				if s := site(); a.v.Get(s) != a.oracle.Get(s) {
					t.Fatalf("seed %d: %v.Get(%d) = %d, oracle %d", seed, a.v, s, a.v.Get(s), a.oracle.Get(s))
				}
			default:
				if got, want := a.v.String(), a.oracle.String(); got != want {
					t.Fatalf("seed %d: String = %q, oracle %q", seed, got, want)
				}
				if got, want := a.v.Total(), a.oracle.Total(); got != want {
					t.Fatalf("seed %d: %v.Total = %d, oracle %d", seed, a.v, got, want)
				}
				if got, want := fmt.Sprint(a.v.Sites()), fmt.Sprint(a.oracle.Sites()); got != want {
					t.Fatalf("seed %d: Sites = %s, oracle %s", seed, got, want)
				}
			}
			for i, m := range pool {
				if len(m.v) != len(m.snap) {
					t.Fatalf("seed %d step %d: vector %d changed length", seed, step, i)
				}
				for j := range m.snap {
					if m.v[j] != m.snap[j] {
						t.Fatalf("seed %d step %d: vector %d changed after it was returned: %v, was %v",
							seed, step, i, m.v, VV(m.snap))
					}
				}
			}
		}
	}
}

// TestSharedBaseConcurrentBump has two goroutines bump and merge from
// one shared base with no synchronization between them; immutability
// means the race detector has nothing to report and the base is
// unchanged afterwards.
func TestSharedBaseConcurrentBump(t *testing.T) {
	t.Parallel()
	base := mk(1, 4, 2, 1, 3, 7)
	want := base.String()
	var wg sync.WaitGroup
	for g := 1; g <= 2; g++ {
		wg.Add(1)
		go func(s SiteID) {
			defer wg.Done()
			v := base
			for i := 0; i < 1000; i++ {
				v = v.Bump(s).Merge(base.Bump(SiteID(3)))
				if v.Compare(base) != Dominates {
					t.Errorf("goroutine %d: %v does not dominate the base %v", s, v, base)
					return
				}
			}
		}(SiteID(g))
	}
	wg.Wait()
	if got := base.String(); got != want {
		t.Fatalf("shared base changed: %s, was %s", got, want)
	}
}

func TestWireRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var dec Decoder
		var b []byte
		var vs []VV
		for n := 1 + r.Intn(80); n > 0; n-- {
			v := randomVV(r)
			if r.Intn(4) == 0 {
				v = v.Bump(SiteID(1 + r.Int63n(1<<31)))
			}
			before := len(b)
			b = v.AppendBinary(b)
			if len(b)-before != v.EncodedLen() {
				return false
			}
			vs = append(vs, v)
		}
		for _, want := range vs {
			got, rest, err := dec.Decode(b)
			if err != nil || !got.Equal(want) || got.String() != want.String() {
				return false
			}
			b = rest
		}
		return len(b) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedVectorsDoNotOverlap checks that vectors carved from one
// backing array cannot reach each other's entries: each is capped at
// its own length.
func TestDecodedVectorsDoNotOverlap(t *testing.T) {
	t.Parallel()
	a, b := mk(1, 1, 2, 2), mk(3, 3)
	wire := b.AppendBinary(a.AppendBinary(nil))
	var dec Decoder
	gotA, rest, err := dec.Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	gotB, _, err := dec.Decode(rest)
	if err != nil {
		t.Fatal(err)
	}
	if cap(gotA) != len(gotA) {
		t.Fatalf("decoded vector has spare capacity %d over its neighbour", cap(gotA)-len(gotA))
	}
	if bumped := gotA.Bump(9); !gotB.Equal(b) || !gotA.Equal(a) || bumped.Get(9) != 1 {
		t.Fatalf("bumping one decoded vector disturbed another: %v %v", gotA, gotB)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		wire []byte
	}{
		{"empty", nil},
		{"truncated-count", []byte{0x80}},
		{"count-beyond-input", []byte{2, 1, 1}},
		{"huge-count", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1}},
		{"truncated-pair", []byte{1, 5}},
		{"zero-count-entry", []byte{1, 5, 0}},
		{"unsorted-sites", []byte{2, 5, 1, 4, 1}},
		{"duplicate-site", []byte{2, 5, 1, 5, 1}},
		{"site-overflows-int", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var dec Decoder
			if v, _, err := dec.Decode(c.wire); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode(%x) = %v, %v; want ErrCorrupt", c.wire, v, err)
			}
		})
	}
	// A declared count the input cannot hold is refused before the
	// backing array for it is allocated.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 1}
	if n := testing.AllocsPerRun(10, func() {
		var dec Decoder
		sinkVV, _, _ = dec.Decode(huge)
	}); n != 0 {
		t.Fatalf("rejecting an oversized count allocated %v times", n)
	}
}

var (
	sinkVV  VV
	sinkOrd Ordering
)

// TestAllocationPins fixes what the representation promises the layers
// above: a copy and a comparison are free, a bump or a merge is one
// allocation.
func TestAllocationPins(t *testing.T) {
	a, b := mk(1, 40, 2, 7, 3, 12), mk(1, 41, 2, 7, 3, 11)
	pins := []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Copy", 0, func() { sinkVV = a.Copy() }},
		{"Compare", 0, func() { sinkOrd = a.Compare(b) }},
		{"Bump", 1, func() { sinkVV = a.Bump(2) }},
		{"Bump-new-site", 1, func() { sinkVV = a.Bump(9) }},
		{"Merge", 1, func() { sinkVV = a.Merge(b) }},
	}
	for _, p := range pins {
		if got := testing.AllocsPerRun(100, p.fn); got > p.max {
			t.Errorf("%s allocates %v times per call, want at most %v", p.name, got, p.max)
		}
	}
}

// The BenchmarkVV* figures are the vclock rows of the per-layer ledger
// (ROADMAP): width 3 is the replica count of every benchmark workload.
func BenchmarkVVCompare(b *testing.B) {
	x, y := mk(1, 40, 2, 7, 3, 12), mk(1, 41, 2, 7, 3, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkOrd = x.Compare(y)
	}
}

func BenchmarkVVMerge(b *testing.B) {
	x, y := mk(1, 40, 2, 7, 3, 12), mk(1, 41, 2, 7, 3, 11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkVV = x.Merge(y)
	}
}

func BenchmarkVVBump(b *testing.B) {
	x := mk(1, 40, 2, 7, 3, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkVV = x.Bump(2)
	}
}
