package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// forbiddenTimeFuncs are the wall-clock entry points protocol packages
// must not reach for. time.After and time.Tick additionally anchor
// real-time scheduling that the simulation can't account for.
var forbiddenTimeFuncs = map[string]string{
	"Now":       "use the netsim simulated clock (Network.Clock) instead",
	"Sleep":     "use simclock.Clock.Backoff or charge simulated cost instead",
	"After":     "real-time timers desynchronize the simulated cost model",
	"Tick":      "real-time tickers desynchronize the simulated cost model",
	"NewTicker": "real-time tickers desynchronize the simulated cost model",
	"NewTimer":  "real-time timers desynchronize the simulated cost model",
}

// SimClockAnalyzer forbids wall-clock time in protocol packages.
//
// The LOCUS reproduction measures protocol cost in simulated
// microseconds charged per message and disk access ([GOLD83]-style cost
// accounting). A wall-clock read in a protocol package either leaks
// host timing into deterministic partition/merge tests or silently
// diverges from the counted cost model. internal/simclock is the one
// place simulated time meets the real scheduler (a yield; it does not
// sleep), and it is audited separately.
func SimClockAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "simclock",
		Doc:  "forbid wall-clock time.Now/Sleep/After/Tick/NewTicker/NewTimer in protocol packages",
		Run:  runSimClock,
	}
}

func runSimClock(prog *Program, cfg *Config) []Finding {
	var out []Finding
	for _, pkg := range prog.Targets {
		if !suffixMatchesAny(pkg.Path, cfg.ProtocolPackages) {
			continue
		}
		sup := suppressionsFor(prog, pkg, cfg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				reason, bad := forbiddenTimeFuncs[sel.Sel.Name]
				if !bad {
					return true
				}
				ident, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := pkg.Info.Uses[ident].(*types.PkgName)
				if !ok || pn.Imported().Path() != "time" {
					return true
				}
				pos := prog.Fset.Position(sel.Pos())
				if sup.allowed(pos, "simclock") {
					return true
				}
				out = append(out, Finding{
					Pos:      pos,
					Analyzer: "simclock",
					Message: fmt.Sprintf("wall-clock time.%s in protocol package %s: %s",
						sel.Sel.Name, pkg.Types.Name(), reason),
				})
				return true
			})
		}
	}
	return out
}

func suffixMatchesAny(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if hasPathSuffix(path, s) {
			return true
		}
	}
	return false
}
