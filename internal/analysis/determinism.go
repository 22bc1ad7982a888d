package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPackages are the import-path suffixes of packages whose code runs inside
// (or builds) a simulation and must therefore be bit-reproducible by seed.
var simPackages = []string{
	"internal/sim", "internal/fabric", "internal/switchsim", "internal/transport",
	"internal/dcqcn", "internal/core", "internal/lb", "internal/topo",
	"internal/workload", "internal/harness", "internal/scenario", "internal/spec",
	"internal/flatmap", "internal/telemetry",
}

// concurrencyAllowed are packages exempt from the goroutine/select rule.
// Only internal/harness qualifies: harness.Parallel is the one worker pool,
// and every other package (internal/scenario included) fans out through it.
// Each worker owns a disjoint engine, RNG stream, and network, so worker
// scheduling cannot reach any single simulation's event order (the
// worker-isolation contract documented at harness.Parallel).
var concurrencyAllowed = []string{"internal/harness"}

// wallClockFuncs are time-package functions that read or depend on the wall
// clock. Simulations must use sim.Time from the engine instead.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "Sleep": true,
}

func inSimPackage(path string) bool {
	for _, s := range simPackages {
		if pathHasSuffix(path, s) {
			return true
		}
	}
	return false
}

// Determinism forbids nondeterminism sources in simulation packages: wall
// -clock reads, math/rand (use internal/rng with an explicit seed), goroutine
// creation and select statements (except the harness worker fan-out), and
// every range over a built-in map, whose iteration order is randomized per
// run. Range a sorted slice instead, or keep the state in an
// internal/flatmap table, whose Keys and Range visit keys in ascending
// order; a cold-path map range that cannot be avoided takes a justified
// //simlint:allow(determinism).
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, math/rand, goroutines/select, and " +
		"map iteration in simulation packages",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) {
	if !inSimPackage(p.Pkg.Path) {
		return
	}
	goOK := false
	for _, s := range concurrencyAllowed {
		if pathHasSuffix(p.Pkg.Path, s) {
			goOK = true
		}
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "import of %s in simulation package; use internal/rng with an explicit seed", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !goOK {
					p.Reportf(n.Pos(), "go statement in simulation package; simulations are single-threaded, parallelism belongs in internal/harness")
				}
			case *ast.SelectStmt:
				if !goOK {
					p.Reportf(n.Pos(), "select statement in simulation package; channel scheduling is nondeterministic")
				}
			case *ast.CallExpr:
				if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
					p.Reportf(n.Pos(), "time.%s reads the wall clock; simulations must use sim.Time from the engine", fn.Name())
				}
			case *ast.RangeStmt:
				if isMapType(p.TypeOf(n.X)) {
					p.Reportf(n.X.Pos(), "range over built-in map in simulation package: iteration order is random; range a sorted slice or use internal/flatmap's ascending Keys/Range")
				}
			}
			return true
		})
	}
}

// calleeFunc resolves the called function object, or nil.
func calleeFunc(p *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.ObjectOf(id).(*types.Func)
	return fn
}
