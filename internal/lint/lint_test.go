package lint

import (
	"errors"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// The fixture packages under testdata/src seed one deliberate violation
// per `// want "regexp"` comment. They are loaded as extra targets on
// top of the real module so analyzer behavior is tested against the
// same whole-program view locus-vet uses.
var fixtureLeaves = []string{
	"simclock_f", "unchecked_f", "lockorder_f", "panic_f", "rawcall_f",
	"pageleak_f", "inodealias_f", "blockinglock_f",
	"maporder_f", "sentinelerr_f", "atomiccounter_f",
	"staleallow_f",
}

var (
	progOnce sync.Once
	prog     *Program
	progErr  error
)

// sharedProgram loads the module plus all fixtures exactly once; the
// source type-check is the expensive part of every test here.
func sharedProgram(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() {
		root, err := FindModuleRoot(".")
		if err != nil {
			progErr = err
			return
		}
		module, err := modulePath(root)
		if err != nil {
			progErr = err
			return
		}
		var extras []string
		for _, leaf := range fixtureLeaves {
			extras = append(extras, module+"/internal/lint/testdata/src/"+leaf)
		}
		prog, progErr = LoadAll(root, extras)
	})
	if progErr != nil {
		t.Fatalf("loading program: %v", progErr)
	}
	return prog
}

func fixturePkg(t *testing.T, p *Program, leaf string) *Package {
	t.Helper()
	for path, pkg := range p.ByPath {
		if strings.HasSuffix(path, "/testdata/src/"+leaf) {
			return pkg
		}
	}
	t.Fatalf("fixture package %s not loaded", leaf)
	return nil
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile(`//\s*want "([^"]+)"`)

// wantsIn collects the `// want` expectations of a fixture package; a
// line that expects two findings carries two `// want`s.
func wantsIn(t *testing.T, p *Program, pkg *Package) []*want {
	t.Helper()
	var out []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want regexp %q: %v", m[1], err)
					}
					pos := p.Fset.Position(c.Pos())
					out = append(out, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// checkFixture runs one analyzer with a fixture config and diffs its
// findings in the fixture package against the `// want` expectations.
func checkFixture(t *testing.T, analyzer *Analyzer, cfg *Config, leaf string) {
	t.Helper()
	p := sharedProgram(t)
	pkg := fixturePkg(t, p, leaf)
	wants := wantsIn(t, p, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", leaf)
	}
	for _, f := range analyzer.Run(p, cfg) {
		if filepath.Dir(f.Pos.Filename) != pkg.Dir {
			continue // findings outside the fixture are other tests' business
		}
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// defaultRow is DefaultConfig's forbidden-call row `name` alone, with
// its Packages pointed at a fixture, so a fixture test exercises the
// production specs.
func defaultRow(t *testing.T, name, leaf string) *Config {
	t.Helper()
	for _, row := range DefaultConfig().Forbidden {
		if row.Name == name {
			row.Packages = []string{leaf}
			return &Config{Forbidden: []Forbidden{row}}
		}
	}
	t.Fatalf("DefaultConfig has no forbidden-call row %q", name)
	return nil
}

func TestSimClockFixture(t *testing.T) {
	t.Parallel()
	checkFixture(t, ForbiddenAnalyzer(), defaultRow(t, "simclock", "simclock_f"), "simclock_f")
}

func TestAtomicFixture(t *testing.T) {
	t.Parallel()
	checkFixture(t, ForbiddenAnalyzer(), defaultRow(t, "atomic", "atomiccounter_f"), "atomiccounter_f")
}

func TestUncheckedCallFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{MustCheck: []MethodSpec{
		{PkgSuffix: "unchecked_f", Recv: "Conn", Name: "Call"},
		{PkgSuffix: "unchecked_f", Recv: "Conn", Name: "Cast"},
		{PkgSuffix: "unchecked_f", Name: "Call"},
		{PkgSuffix: "unchecked_f", Recv: "Method", Name: "Cast"},
	}}
	checkFixture(t, UncheckedCallAnalyzer(), cfg, "unchecked_f")
}

func TestLockOrderFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{LockHierarchy: []LockClass{
		{PkgSuffix: "lockorder_f", Type: "Outer"},
		{PkgSuffix: "lockorder_f", Type: "Middle"},
		{PkgSuffix: "lockorder_f", Type: "Inner"},
	}}
	checkFixture(t, LockAnalyzer(), cfg, "lockorder_f")
}

// TestRawCallFixture runs the production row's methods on the
// fixture's own Node type.
func TestRawCallFixture(t *testing.T) {
	t.Parallel()
	cfg := defaultRow(t, "rawcall", "rawcall_f")
	for i := range cfg.Forbidden[0].Funcs {
		cfg.Forbidden[0].Funcs[i].PkgSuffix = "rawcall_f"
	}
	checkFixture(t, ForbiddenAnalyzer(), cfg, "rawcall_f")
}

func TestPanicDisciplineFixture(t *testing.T) {
	t.Parallel()
	checkFixture(t, PanicDisciplineAnalyzer(), DefaultConfig(), "panic_f")
}

func TestPageLeakFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{
		PageAlloc: []MethodSpec{
			{PkgSuffix: "pageleak_f", Recv: "Container", Name: "WritePage"},
			{PkgSuffix: "pageleak_f", Recv: "Container", Name: "AdoptPage"},
			{PkgSuffix: "pageleak_f", Recv: "Container", Name: "AllocInode"},
		},
		FreshFuncs: []string{"Clone"},
	}
	checkFixture(t, PageLeakAnalyzer(), cfg, "pageleak_f")
}

func TestInodeAliasFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{
		AliasTypes: []TypeSpec{{PkgSuffix: "inodealias_f", Type: "Inode"}},
		AliasSourceCalls: []MethodSpec{
			{PkgSuffix: "inodealias_f", Recv: "Container", Name: "GetInode"},
			{PkgSuffix: "inodealias_f", Recv: "Kernel", Name: "lookInternal"},
			{PkgSuffix: "inodealias_f", Recv: "Kernel", Name: "lookLocal"},
			{PkgSuffix: "inodealias_f", Recv: "Kernel", Name: "resolve"},
			{PkgSuffix: "inodealias_f", Recv: "Kernel", Name: "expandHidden"},
		},
		AliasDecodeCalls:  []MethodSpec{{PkgSuffix: "inodealias_f", Name: "Call"}},
		AliasCloneMethods: []string{"Clone"},
		AliasPackages:     []string{"inodealias_f"},
	}
	checkFixture(t, InodeAliasAnalyzer(), cfg, "inodealias_f")
}

// TestBlockingLockFixture puts Kernel in both class lists, as
// production does fs.Kernel, so one walk must report both rules.
func TestBlockingLockFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{
		LockHierarchy: []LockClass{
			{PkgSuffix: "blockinglock_f", Type: "Cluster"},
			{PkgSuffix: "blockinglock_f", Type: "Kernel"},
		},
		BlockingCalls: []MethodSpec{
			{PkgSuffix: "blockinglock_f", Recv: "Node", Name: "Call"},
			{PkgSuffix: "blockinglock_f", Name: "Call"},
		},
		BlockingGuard: []LockClass{
			{PkgSuffix: "blockinglock_f", Type: "Kernel"},
			{PkgSuffix: "blockinglock_f", Type: "Manager", Field: "mu"},
		},
	}
	checkFixture(t, LockAnalyzer(), cfg, "blockinglock_f")
}

func TestMapOrderFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{
		MapOrderPackages: []string{"maporder_f"},
		OrderEffects: []MethodSpec{
			{PkgSuffix: "maporder_f", Recv: "Node", Name: "Call"},
			{PkgSuffix: "maporder_f", Recv: "Node", Name: "Cast"},
			{PkgSuffix: "maporder_f", Name: "Cast"},
		},
	}
	checkFixture(t, MapOrderAnalyzer(), cfg, "maporder_f")
}

func TestSentinelErrFixture(t *testing.T) {
	t.Parallel()
	cfg := &Config{
		SentinelAPIPackages: []string{"sentinelerr_f"},
		SentinelVars:        []VarSpec{{PkgSuffix: "sentinelerr_f", Name: "ErrGone"}},
		SentinelFunnels:     []MethodSpec{{PkgSuffix: "sentinelerr_f", Name: "wrapErr"}},
	}
	checkFixture(t, SentinelErrAnalyzer(), cfg, "sentinelerr_f")
}

// TestRepositoryIsClean is the lint gate inside the test suite: the
// production configuration must report nothing on the real module, so
// `go test ./...` alone catches regressions even when locus-vet is not
// run directly.
func TestRepositoryIsClean(t *testing.T) {
	t.Parallel()
	p := sharedProgram(t)
	testdata := string(filepath.Separator) + "testdata" + string(filepath.Separator)
	cfg := DefaultConfig()
	for _, f := range Run(p, cfg, Analyzers()) {
		if strings.Contains(f.Pos.Filename, testdata) {
			continue
		}
		t.Errorf("repository not lint-clean: %s", f)
	}
	// Every allow directive in production code must carry a reason; an
	// unaudited suppression is itself a finding.
	for _, f := range AllowPolicyFindings(p) {
		if strings.Contains(f.Pos.Filename, testdata) {
			continue
		}
		t.Errorf("unauditable allow directive: %s", f)
	}
	// ...and must suppress a live finding: a directive nothing hides is
	// obsolete or mislocated (staleallow). Fixture directives fire only
	// under their fixture configs, so testdata is excluded here too.
	for _, f := range StaleAllowFindings(p, cfg) {
		if strings.Contains(f.Pos.Filename, testdata) {
			continue
		}
		t.Errorf("stale allow directive: %s", f)
	}
}

// TestStaleAllowAudit is the staleallow fixture test: after running the
// analyzer its directives name, the directive that suppressed a real
// finding stays quiet and the one that suppressed nothing is reported.
func TestStaleAllowAudit(t *testing.T) {
	t.Parallel()
	p := sharedProgram(t)
	pkg := fixturePkg(t, p, "staleallow_f")
	cfg := &Config{MustCheck: []MethodSpec{{PkgSuffix: "staleallow_f", Recv: "Conn", Name: "Cast"}}}
	if fs := UncheckedCallAnalyzer().Run(p, cfg); len(fs) != 0 {
		for _, f := range fs {
			if filepath.Dir(f.Pos.Filename) == pkg.Dir {
				t.Errorf("fixture's live directive did not suppress: %s", f)
			}
		}
	}
	var inFixture []Finding
	for _, f := range StaleAllowFindings(p, cfg) {
		if filepath.Dir(f.Pos.Filename) == pkg.Dir {
			inFixture = append(inFixture, f)
		}
	}
	if len(inFixture) != 1 {
		t.Fatalf("stale-allow audit reported %d directives in the fixture, want exactly 1: %v", len(inFixture), inFixture)
	}
	got := inFixture[0]
	if got.Analyzer != "staleallow" || !strings.Contains(got.Message, "suppresses no finding") {
		t.Errorf("unexpected stale-allow finding: %s", got)
	}
	// The flagged directive is the one whose reason says so.
	for _, a := range CollectAllows(p) {
		if a.Pos.Filename == got.Pos.Filename && a.Pos.Line == got.Pos.Line {
			if !strings.Contains(a.Reason, "suppresses nothing") {
				t.Errorf("audit flagged the wrong directive: %s (reason %q)", got, a.Reason)
			}
			return
		}
	}
	t.Errorf("stale-allow finding at %s does not sit on a directive line", got.Pos)
}

// TestLoadSurfacesTypeErrors exercises the load-failure path: a package
// that fails to type-check must produce a structured LoadError naming
// the package and its first error, never a silent skip.
func TestLoadSurfacesTypeErrors(t *testing.T) {
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	module, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	brokenPath := module + "/internal/lint/testdata/src/broken_f"
	_, err = LoadAll(root, []string{brokenPath})
	if err == nil {
		t.Fatal("LoadAll succeeded with a package that cannot type-check")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("LoadAll error is %T, want *LoadError: %v", err, err)
	}
	if len(le.Packages) != 1 {
		t.Fatalf("LoadError lists %d packages, want 1: %+v", len(le.Packages), le.Packages)
	}
	pe := le.Packages[0]
	if pe.Path != brokenPath {
		t.Errorf("failure path = %q, want %q", pe.Path, brokenPath)
	}
	if !strings.Contains(pe.Err, "undefinedIdentifier") {
		t.Errorf("failure error %q does not mention the undefined identifier", pe.Err)
	}
}

// TestLoadErrorAggregatesAllBrokenPackages pins the multi-package
// aggregation contract: with several broken targets, the loader
// attempts every one and the LoadError lists each with its own first
// error — one broken package must not mask another.
func TestLoadErrorAggregatesAllBrokenPackages(t *testing.T) {
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	module, err := modulePath(root)
	if err != nil {
		t.Fatal(err)
	}
	broken := module + "/internal/lint/testdata/src/broken_f"
	broken2 := module + "/internal/lint/testdata/src/broken2_f"
	_, err = LoadAll(root, []string{broken, broken2})
	if err == nil {
		t.Fatal("LoadAll succeeded with two packages that cannot type-check")
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("LoadAll error is %T, want *LoadError: %v", err, err)
	}
	if len(le.Packages) != 2 {
		t.Fatalf("LoadError lists %d packages, want 2: %+v", len(le.Packages), le.Packages)
	}
	wantErrs := map[string]string{
		broken:  "undefinedIdentifier",
		broken2: "anotherMissingName",
	}
	for _, pe := range le.Packages {
		ident, ok := wantErrs[pe.Path]
		if !ok {
			t.Errorf("unexpected package in LoadError: %+v", pe)
			continue
		}
		if !strings.Contains(pe.Err, ident) {
			t.Errorf("%s reported %q, want mention of %q", pe.Path, pe.Err, ident)
		}
		delete(wantErrs, pe.Path)
	}
	for path := range wantErrs {
		t.Errorf("broken package %s missing from LoadError", path)
	}
	if !strings.Contains(le.Error(), "2 packages") {
		t.Errorf("LoadError summary %q does not state the aggregate count", le.Error())
	}
}

func TestLoadAllCoversModule(t *testing.T) {
	t.Parallel()
	p := sharedProgram(t)
	for _, pkgPath := range []string{"internal/netsim", "internal/fs", "internal/storage"} {
		found := false
		for _, tgt := range p.Targets {
			if hasPathSuffix(tgt.Path, pkgPath) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("expected %s among analysis targets", pkgPath)
		}
	}
}
