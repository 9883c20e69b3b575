// Package lint is locus-vet: a repo-specific static analyzer for the
// LOCUS simulation substrate, built only on the standard library's
// go/ast, go/parser, and go/types.
//
// General-purpose linters cannot know this repository's protocol
// contracts; these analyzers encode them:
//
//   - the forbidden-call table (Config.Forbidden), one row per rule:
//     simclock keeps the wall clock out of the protocol packages (it
//     would make the deterministic partition/merge tests flaky and
//     decouple benchmark output from the counted cost model); rawcall
//     keeps the untyped transport out of fs and proc (a direct Node.Call
//     bypasses retry and dedup, so under message loss it fails
//     spuriously or replays a mutation, and a direct Node.Handle escapes
//     the compiler's pairing of caller and handler types); atomic keeps
//     package-level sync/atomic functions out of the concurrent packages
//     (a shared counter is a typed atomic, so no access to it is plain).
//   - uncheckedcall: an ignored error from a netsim exchange or a
//     storage commit/abort silently drops a protocol transition — the
//     failure modes (§2.3.6, §5) the paper's recovery machinery exists
//     to handle.
//   - panicdiscipline: library code must fail through typed errors or
//     the internal/lint/invariant assertion layer; a bare panic in a
//     protocol path takes down the whole simulated network.
//   - pageleak and inodealias, dataflow over each function's CFG.
//   - over the module's one call graph: the lock walk (lockorder: mutex
//     acquisitions follow the declared hierarchy; blockinglock: no guard
//     mutex is held across a network exchange), maporder and
//     sentinelerr.
//
// Findings are suppressed line-by-line with a trailing
// `//locus:vet-allow <analyzer> <reason>` comment. Every suppression
// must carry a justification.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer diagnosis.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check over a loaded Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, cfg *Config) []Finding
}

// MethodSpec names a method whose error return must not be discarded.
type MethodSpec struct {
	// PkgSuffix matches the defining package by import-path suffix.
	PkgSuffix string
	// Recv is the receiver type name ("" for package-level functions).
	Recv string
	// Name is the method or function name.
	Name string
}

// LockClass names a mutex-owning struct participating in the declared
// lock hierarchy.
type LockClass struct {
	// PkgSuffix matches the defining package by import-path suffix.
	PkgSuffix string
	// Type is the struct type whose mutex fields this class covers.
	Type string
	// Field, when set, narrows the class to that one mutex field of
	// Type (topology.Manager's mu guards its tables; its protoMu is
	// held across a whole protocol run by design).
	Field string
}

func (c LockClass) String() string {
	if c.Field != "" {
		return c.PkgSuffix + "." + c.Type + "." + c.Field
	}
	return c.PkgSuffix + "." + c.Type
}

// TypeSpec names a type by defining-package suffix and type name.
type TypeSpec struct {
	PkgSuffix string
	Type      string
}

func (t TypeSpec) String() string { return t.PkgSuffix + "." + t.Type }

// VarSpec names a package-level variable (a sentinel error) by
// defining-package suffix and name.
type VarSpec struct {
	PkgSuffix string
	Name      string
}

func (v VarSpec) String() string { return v.PkgSuffix + "." + v.Name }

// Config parameterizes the analyzers. Production runs use
// DefaultConfig; fixture tests substitute fixture packages and types.
type Config struct {
	// Forbidden is the forbidden-call table (ForbiddenAnalyzer).
	Forbidden []Forbidden
	// MustCheck lists calls whose error results must be consumed
	// (uncheckedcall analyzer).
	MustCheck []MethodSpec
	// LockHierarchy is the declared lock order, outermost first
	// (lockorder analyzer). Acquiring an earlier class while holding a
	// later one is an inversion.
	LockHierarchy []LockClass
	// InvariantPackages are import-path suffixes of packages whose
	// entire purpose is assertion (panic there is the mechanism, not a
	// violation).
	InvariantPackages []string

	// PageAlloc lists calls that hand the caller a storage resource
	// (shadow page, reserved inode number) that must be released,
	// committed, or staged on every path (pageleak analyzer).
	PageAlloc []MethodSpec
	// FreshFuncs are method names whose results are freshly owned
	// values; a local assigned from one is an "owned root" that page
	// facts may be parked in without counting as a release.
	FreshFuncs []string

	// AliasTypes are pointer types that must be Cloned before a write
	// through them when they name a shared value (inodealias analyzer).
	AliasTypes []TypeSpec
	// AliasSourceCalls are the calls whose first result is a shared
	// AliasTypes pointer (the container's committed inode, or the one a
	// pathname search's unsynchronized look found).
	AliasSourceCalls []MethodSpec
	// AliasDecodeCalls are the typed exchanges whose first result is
	// the peer's reply: AliasTypes fields read off it are the sender's.
	AliasDecodeCalls []MethodSpec
	// AliasCloneMethods are the methods that produce an owned copy of an
	// AliasTypes value ("Clone").
	AliasCloneMethods []string
	// AliasPackages scopes the inodealias analyzer.
	AliasPackages []string

	// BlockingCalls are primitives that block on concurrent progress
	// (network exchanges, simulated-clock backoff); the blockinglock
	// analyzer forbids reaching one while holding a BlockingGuard mutex.
	BlockingCalls []MethodSpec
	// BlockingGuard are the lock classes that must never be held across
	// a blocking call.
	BlockingGuard []LockClass

	// OrderEffects are the transport exchanges whose ORDER is part of
	// the deterministic schedule: every send bumps the per-
	// (from,to,method) occurrence counter the fault plane keys its
	// drop/dup/delay decisions on, so reordering a group of sends
	// changes what a pinned seed replays. The interprocedural summary
	// tier (summary.go) closes "may reach one" over the call graph; the
	// maporder analyzer flags raw map ranges whose bodies carry the
	// fact.
	OrderEffects []MethodSpec
	// MapOrderPackages scopes the maporder analyzer.
	MapOrderPackages []string

	// SentinelVars are the raw transport/fs-site sentinels that must
	// not escape an exported API without passing a wrap funnel
	// (sentinelerr analyzer; the §5.6 failure-action discipline).
	SentinelVars []VarSpec
	// SentinelFunnels are the designated wrap functions that launder a
	// raw sentinel into the classified form callers are promised
	// (proc.wrapSiteErr, proc.wrapFsSiteErr).
	SentinelFunnels []MethodSpec
	// SentinelSources are calls whose error result is presumed tainted
	// even without an analyzed body (fixtures use this; production
	// relies on the transitive summary instead).
	SentinelSources []MethodSpec
	// SentinelAPIPackages are the packages whose exported functions and
	// methods must never return a raw sentinel.
	SentinelAPIPackages []string

	// mu guards the interprocedural summary cache and the used-allow
	// tracker below.
	mu sync.Mutex
	// summary/summaryProg cache the summary table built for a Program.
	summary     *summaries
	summaryProg *Program
	// usedAllows records every suppression that actually fired under
	// this Config: filename -> line -> analyzer names suppressed there.
	// StaleAllowFindings reports directives that never fired.
	usedAllows map[string]map[int]map[string]bool
}

// noteAllowUsed records that a suppression fired at pos for analyzer.
func (cfg *Config) noteAllowUsed(pos token.Position, analyzer string) {
	cfg.mu.Lock()
	defer cfg.mu.Unlock()
	if cfg.usedAllows == nil {
		cfg.usedAllows = make(map[string]map[int]map[string]bool)
	}
	lineMap := cfg.usedAllows[pos.Filename]
	if lineMap == nil {
		lineMap = make(map[int]map[string]bool)
		cfg.usedAllows[pos.Filename] = lineMap
	}
	set := lineMap[pos.Line]
	if set == nil {
		set = make(map[string]bool)
		lineMap[pos.Line] = set
	}
	set[analyzer] = true
}

// allowUsed reports whether any suppression fired at (filename, line).
func (cfg *Config) allowUsed(filename string, line int) bool {
	cfg.mu.Lock()
	defer cfg.mu.Unlock()
	return len(cfg.usedAllows[filename][line]) > 0
}

// DefaultConfig is the production configuration for this repository.
func DefaultConfig() *Config {
	// The transport exchanges: the untyped Node methods, and the typed
	// generic path over them that fs and proc use.
	rawExchanges := []MethodSpec{
		{PkgSuffix: "internal/netsim", Recv: "Node", Name: "Call"},
		{PkgSuffix: "internal/netsim", Recv: "Node", Name: "CallSeq"},
		{PkgSuffix: "internal/netsim", Recv: "Node", Name: "Cast"},
	}
	typedExchanges := []MethodSpec{
		{PkgSuffix: "internal/netsim", Name: "Call"},
		{PkgSuffix: "internal/netsim", Name: "CallAt"},
		{PkgSuffix: "internal/netsim", Name: "Cast"},
	}
	exchangesAnd := func(more ...MethodSpec) []MethodSpec {
		out := append([]MethodSpec(nil), rawExchanges...)
		return append(append(out, typedExchanges...), more...)
	}
	return &Config{
		Forbidden: []Forbidden{
			{
				Name: "simclock",
				Packages: []string{
					"internal/netsim", "internal/fs", "internal/storage",
					"internal/txn", "internal/recon", "internal/topology",
				},
				Funcs: []MethodSpec{
					{PkgSuffix: "time", Name: "Now"},
					{PkgSuffix: "time", Name: "Sleep"},
					{PkgSuffix: "time", Name: "After"},
					{PkgSuffix: "time", Name: "Tick"},
					{PkgSuffix: "time", Name: "NewTicker"},
					{PkgSuffix: "time", Name: "NewTimer"},
				},
				Why: "protocol packages run on the simulated clock (read Network.Clock, wait with simclock.Clock.Backoff, charge simulated cost); " +
					"host time would reach the deterministic tests and the counted cost model",
			},
			{
				Name:     "rawcall",
				Packages: []string{"internal/fs", "internal/proc"},
				Funcs: append([]MethodSpec{
					{PkgSuffix: "internal/netsim", Recv: "Node", Name: "Handle"},
				}, rawExchanges...),
				Why: "the untyped transport bypasses the typed at-most-once path; use netsim.Handle/Call/Cast with the message's declared descriptor",
			},
			{
				Name: "atomic",
				Packages: []string{
					"internal/fs", "internal/proc", "internal/netsim",
					"internal/storage", "internal/chaos",
				},
				// Typed-atomic methods have receivers, so they never match.
				Funcs: []MethodSpec{{PkgSuffix: "sync/atomic"}},
				Why:   "a value shared between goroutines is a typed atomic (atomic.Int64, atomic.Pointer, ...), so no access to it can be plain",
			},
		},
		MustCheck: exchangesAnd(
			MethodSpec{PkgSuffix: "internal/storage", Recv: "Container", Name: "CommitInode"},
			MethodSpec{PkgSuffix: "internal/fs", Recv: "File", Name: "Commit"},
			MethodSpec{PkgSuffix: "internal/fs", Recv: "File", Name: "Abort"},
			MethodSpec{PkgSuffix: "internal/fs", Recv: "File", Name: "Close"},
		),
		// The declared lock hierarchy, outermost to innermost. See
		// DESIGN.md "Correctness tooling".
		LockHierarchy: []LockClass{
			{PkgSuffix: "internal/fs", Type: "Kernel"},
			{PkgSuffix: "internal/storage", Type: "Store"},
			{PkgSuffix: "internal/storage", Type: "Container"},
			{PkgSuffix: "internal/netsim", Type: "Network"},
			{PkgSuffix: "internal/netsim", Type: "Node"},
		},
		InvariantPackages: []string{"internal/lint/invariant"},

		PageAlloc: []MethodSpec{
			{PkgSuffix: "internal/storage", Recv: "Container", Name: "WritePage"},
			{PkgSuffix: "internal/storage", Recv: "Container", Name: "AdoptPage"},
			{PkgSuffix: "internal/storage", Recv: "Container", Name: "AllocInode"},
		},
		FreshFuncs: []string{"Clone"},

		AliasTypes: []TypeSpec{{PkgSuffix: "internal/storage", Type: "Inode"}},
		AliasSourceCalls: []MethodSpec{
			{PkgSuffix: "internal/storage", Recv: "Container", Name: "GetInode"},
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "lookInternal"},
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "lookLocal"},
			// Pathname search carries each look on to its next consumer.
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "statType"},
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "searchDir"},
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "expandHidden"},
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "resolve"},
			{PkgSuffix: "internal/fs", Recv: "Kernel", Name: "resolveParent"},
		},
		AliasDecodeCalls: []MethodSpec{
			{PkgSuffix: "internal/netsim", Name: "Call"},
			{PkgSuffix: "internal/netsim", Name: "CallAt"},
		},
		AliasCloneMethods: []string{"Clone"},
		AliasPackages:     []string{"internal/fs", "internal/proc"},

		BlockingCalls: exchangesAnd(
			MethodSpec{PkgSuffix: "internal/simclock", Recv: "Clock", Name: "Backoff"},
		),
		BlockingGuard: []LockClass{
			{PkgSuffix: "internal/fs", Type: "Kernel"},
			{PkgSuffix: "internal/proc", Type: "Manager"},
			{PkgSuffix: "internal/storage", Type: "Store"},
			{PkgSuffix: "internal/storage", Type: "Container"},
			// noteLinkDown takes it on the goroutine that closed the
			// circuit, which may be inside a Call this manager made.
			{PkgSuffix: "internal/topology", Type: "Manager", Field: "mu"},
		},

		// The transport exchanges are the order-observable effects: the
		// fault plane's drop/dup/delay decisions key on the per-
		// (from,to,method) occurrence number of each send, so the order
		// of a group of sends is part of the seed-replay contract.
		// Helpers over them inherit the fact through the summary closure.
		OrderEffects: exchangesAnd(),
		MapOrderPackages: []string{
			"internal/fs", "internal/proc", "internal/netsim", "internal/chaos",
			"internal/cluster", "locus",
		},

		// §5.6 failure-action discipline: proc's exported API promises
		// ErrSiteFailed (or a classified proc error), never a raw
		// transport or fs-site sentinel. fs deliberately surfaces the
		// raw sentinels — proc is the layer that wraps them.
		SentinelVars: []VarSpec{
			{PkgSuffix: "internal/netsim", Name: "ErrUnreachable"},
			{PkgSuffix: "internal/netsim", Name: "ErrTimeout"},
			{PkgSuffix: "internal/netsim", Name: "ErrCircuitClosed"},
			{PkgSuffix: "internal/netsim", Name: "ErrSiteDown"},
			{PkgSuffix: "internal/netsim", Name: "ErrNoHandler"},
			{PkgSuffix: "internal/netsim", Name: "ErrCrashed"},
			{PkgSuffix: "internal/fs", Name: "ErrNoCSS"},
			{PkgSuffix: "internal/fs", Name: "ErrNoStorageSite"},
		},
		SentinelFunnels: []MethodSpec{
			{PkgSuffix: "internal/proc", Name: "wrapSiteErr"},
			{PkgSuffix: "internal/proc", Name: "wrapFsSiteErr"},
		},
		// The typed exchanges surface every transport sentinel Node.CallSeq
		// and Node.Cast can; naming them keeps the taint independent of
		// how much of netsim's body the summary pass resolves.
		SentinelSources:     typedExchanges,
		SentinelAPIPackages: []string{"internal/proc"},
	}
}

// Analyzers returns all locus-vet analyzers.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ForbiddenAnalyzer(),
		UncheckedCallAnalyzer(),
		PanicDisciplineAnalyzer(),
		PageLeakAnalyzer(),
		InodeAliasAnalyzer(),
		LockAnalyzer(),
		MapOrderAnalyzer(),
		SentinelErrAnalyzer(),
	}
}

// Run executes the given analyzers and returns all findings sorted by
// position.
func Run(prog *Program, cfg *Config, analyzers []*Analyzer) []Finding {
	var out []Finding
	for _, a := range analyzers {
		out = append(out, a.Run(prog, cfg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// hasPathSuffix reports whether import path p ends in suffix at a path
// boundary ("internal/fs" matches "repro/internal/fs" but not
// "repro/internal/fsx").
func hasPathSuffix(p, suffix string) bool {
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// pkgInScope reports whether a package matches any of the suffixes.
func pkgInScope(pkg *Package, suffixes []string) bool {
	for _, s := range suffixes {
		if hasPathSuffix(pkg.Path, s) {
			return true
		}
	}
	return false
}

// suppressions indexes `//locus:vet-allow` comments by file and line.
type suppressions struct {
	// byLine maps filename -> line -> set of allowed analyzer names.
	byLine map[string]map[int]map[string]bool
	// cfg, when non-nil, records every suppression that fires so the
	// stale-allow audit can flag directives that never do.
	cfg *Config
}

// suppressionsFor scans a package's comments once.
func suppressionsFor(prog *Program, pkg *Package, cfg *Config) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int]map[string]bool), cfg: cfg}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names := directiveNames(c.Text)
				if len(names) == 0 {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				lineMap := s.byLine[pos.Filename]
				if lineMap == nil {
					lineMap = make(map[int]map[string]bool)
					s.byLine[pos.Filename] = lineMap
				}
				set := lineMap[pos.Line]
				if set == nil {
					set = make(map[string]bool)
					lineMap[pos.Line] = set
				}
				for _, n := range names {
					set[n] = true
				}
			}
		}
	}
	return s
}

// directiveNames extracts analyzer names from a suppression comment.
func directiveNames(text string) []string {
	names, _ := parseDirective(text)
	return names
}

// allowMarker opens the one suppression directive spelling,
// `//locus:vet-allow <analyzer> <reason>`.
const allowMarker = "locus:vet-allow"

// parseDirective splits an allow directive into analyzer names and the
// trailing justification. The argument list ends at the first space;
// everything after is the reason. The marker must open the comment
// body — prose that merely mentions the directive syntax (an
// analyzer's doc comment, say) is not itself a directive.
func parseDirective(text string) (names []string, reason string) {
	rest, ok := strings.CutPrefix(commentBody(text), allowMarker)
	if !ok {
		return nil, ""
	}
	rest = strings.TrimLeft(rest, " \t")
	args := rest
	if j := strings.IndexAny(rest, " \t"); j >= 0 {
		args = rest[:j]
		reason = strings.TrimSpace(rest[j:])
	}
	for _, n := range strings.Split(args, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names, reason
}

// commentBody strips the comment delimiters and surrounding space.
func commentBody(text string) string {
	body := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, "/*"), "*/"))
	return strings.TrimSpace(strings.TrimPrefix(body, "//"))
}

// Allow is one audited suppression directive found in the tree.
type Allow struct {
	Pos       token.Position `json:"pos"`
	Analyzers []string       `json:"analyzers"`
	Reason    string         `json:"reason"`
}

// CollectAllows scans every target package for allow directives so the
// driver can count them and enforce that each carries a reason.
func CollectAllows(prog *Program) []Allow {
	var out []Allow
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					names, reason := parseDirective(c.Text)
					if len(names) == 0 {
						continue
					}
					out = append(out, Allow{
						Pos:       prog.Fset.Position(c.Pos()),
						Analyzers: names,
						Reason:    reason,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// AllowPolicyFindings flags allow directives that carry no reason — a
// suppression without a justification is unauditable.
func AllowPolicyFindings(prog *Program) []Finding {
	var out []Finding
	for _, a := range CollectAllows(prog) {
		if a.Reason == "" {
			out = append(out, Finding{
				Pos:      a.Pos,
				Analyzer: "vet-allow",
				Message: fmt.Sprintf("allow directive for %s carries no reason; write `//locus:vet-allow %s <why>`",
					strings.Join(a.Analyzers, ","), strings.Join(a.Analyzers, ",")),
			})
		}
	}
	return out
}

// allowed reports whether a finding by analyzer at pos is suppressed,
// recording the hit for the stale-allow audit.
func (s *suppressions) allowed(pos token.Position, analyzer string) bool {
	set := s.byLine[pos.Filename][pos.Line]
	ok := set[analyzer] || set["all"]
	if ok && s.cfg != nil {
		s.cfg.noteAllowUsed(pos, analyzer)
	}
	return ok
}

// StaleAllowFindings flags `//locus:vet-allow` directives that
// suppressed zero findings under cfg — a suppression nothing hides is
// either obsolete (the code was fixed) or mislocated (the finding it
// meant to silence fires anyway, one line away). Call it only after
// every analyzer has run with cfg, so the usage ledger is complete.
// Reasonless directives are excluded: AllowPolicyFindings already
// flags those.
func StaleAllowFindings(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, a := range CollectAllows(prog) {
		if a.Reason == "" {
			continue
		}
		if cfg.allowUsed(a.Pos.Filename, a.Pos.Line) {
			continue
		}
		out = append(out, Finding{
			Pos:      a.Pos,
			Analyzer: "staleallow",
			Message: fmt.Sprintf("allow directive for %s suppresses no finding on this run; remove it or re-anchor it to the line it meant to silence",
				strings.Join(a.Analyzers, ",")),
		})
	}
	return out
}

// namedOrNil unwraps pointers and returns the named type, or nil.
func namedOrNil(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// typeMatches reports whether t (possibly behind pointers) is the named
// type `name` defined in a package matching pkgSuffix.
func typeMatches(t types.Type, pkgSuffix, name string) bool {
	n := namedOrNil(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && hasPathSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// funcFor resolves the called function object for a call expression, if
// it is a static function or method call. A call of a generic function
// or of a generic type's method — type arguments inferred or explicit —
// resolves to the one declared object (types.Func.Origin), which is
// what specs match and what the call graph keys bodies by.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr: // f[T](...)
		fun = ast.Unparen(ix.X)
	case *ast.IndexListExpr: // f[T, U](...)
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call (pkg.Func)
		}
	}
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}
