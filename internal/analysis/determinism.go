package analysis

import (
	"go/ast"
	"go/token"
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
// range over a map whose body is order-dependent — the sanctioned idiom is
// extracting the keys, sorting, and iterating the sorted slice.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, math/rand, goroutines/select, and " +
		"order-dependent map iteration in simulation packages",
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
				checkMapRange(p, f, n)
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

// checkMapRange flags a range over a map whose body is order-dependent.
// Order-independent (allowed) bodies are built from: per-iteration locals,
// commutative compound assignments (x += v, n++, b |= v, ...), writes indexed
// by the iteration key (other[k] = v, delete(m, k)), continue, pure
// if/else over those, and the sorted-key idiom — appending to a slice that is
// sorted later in the same function.
func checkMapRange(p *Pass, file *ast.File, rng *ast.RangeStmt) {
	t := p.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	cls := &rangeClassifier{pass: p, file: file, rng: rng, locals: map[types.Object]bool{}}
	for _, id := range []ast.Expr{rng.Key, rng.Value} {
		if ident, ok := id.(*ast.Ident); ok && ident.Name != "_" {
			if obj := p.ObjectOf(ident); obj != nil {
				cls.locals[obj] = true
			}
		}
	}
	if bad := cls.firstUnsafe(rng.Body.List); bad != nil {
		p.Reportf(bad.Pos(), "order-dependent statement inside range over map %s; extract keys into a slice, sort, and iterate that", exprString(rng.X))
	}
}

// rangeClassifier walks a map-range body deciding order safety.
type rangeClassifier struct {
	pass   *Pass
	file   *ast.File
	rng    *ast.RangeStmt
	locals map[types.Object]bool // objects declared inside the loop body
}

// firstUnsafe returns the first order-dependent statement, or nil.
func (c *rangeClassifier) firstUnsafe(stmts []ast.Stmt) ast.Stmt {
	for _, s := range stmts {
		if bad := c.unsafeStmt(s); bad != nil {
			return bad
		}
	}
	return nil
}

func (c *rangeClassifier) unsafeStmt(s ast.Stmt) ast.Stmt {
	switch s := s.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					if obj := c.pass.ObjectOf(id); obj != nil {
						c.locals[obj] = true
					}
				}
			}
			return nil
		}
		if s.Tok != token.ASSIGN {
			// Compound assignments: += -= *= /= %= |= &= ^= etc. All but /=
			// and %= commute across iterations; division by per-key values is
			// order-dependent in floating point but absent from this tree, so
			// treat any compound aggregation as safe. Shifts are not.
			if s.Tok == token.SHL_ASSIGN || s.Tok == token.SHR_ASSIGN {
				return s
			}
			return nil
		}
		for i, lhs := range s.Lhs {
			if !c.safePlainAssign(lhs, s.Rhs, i) {
				return s
			}
		}
		return nil
	case *ast.IncDecStmt:
		return nil
	case *ast.DeclStmt:
		return nil
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := c.pass.ObjectOf(id).(*types.Builtin); isBuiltin {
					return nil
				}
			}
		}
		return s
	case *ast.IfStmt:
		if s.Init != nil {
			if bad := c.unsafeStmt(s.Init); bad != nil {
				return bad
			}
		}
		if containsCall(s.Cond) {
			return s
		}
		if bad := c.firstUnsafe(s.Body.List); bad != nil {
			return bad
		}
		if s.Else != nil {
			if bad := c.unsafeStmt(s.Else); bad != nil {
				return bad
			}
		}
		return nil
	case *ast.BlockStmt:
		return c.firstUnsafe(s.List)
	case *ast.BranchStmt:
		if s.Tok == token.CONTINUE {
			return nil
		}
		return s
	case nil:
		return nil
	default:
		return s
	}
}

// safePlainAssign decides whether a plain "=" assignment target is order
// independent: a local of this iteration, an index write into a map, or the
// sorted-append idiom.
func (c *rangeClassifier) safePlainAssign(lhs ast.Expr, rhs []ast.Expr, i int) bool {
	switch lhs := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return true
		}
		if obj := c.pass.ObjectOf(lhs); obj != nil && c.locals[obj] {
			return true
		}
		// s = append(s, ...) where s is sorted after the loop.
		if i < len(rhs) {
			if call, ok := ast.Unparen(rhs[i]).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := c.pass.ObjectOf(id).(*types.Builtin); isBuiltin {
						return c.sortedAfterLoop(lhs)
					}
				}
			}
		}
		return false
	case *ast.IndexExpr:
		t := c.pass.TypeOf(lhs.X)
		if t == nil {
			return false
		}
		_, isMap := t.Underlying().(*types.Map)
		return isMap
	case *ast.SelectorExpr:
		// field write on a per-iteration local (e.g. v := m[k]; v.f = ...)
		if id, ok := ast.Unparen(lhs.X).(*ast.Ident); ok {
			if obj := c.pass.ObjectOf(id); obj != nil && c.locals[obj] {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// sortedAfterLoop reports whether the slice object named by id is passed to a
// sort call somewhere after the range statement in the same function.
func (c *rangeClassifier) sortedAfterLoop(id *ast.Ident) bool {
	obj := c.pass.ObjectOf(id)
	if obj == nil {
		return false
	}
	fn := enclosingFunc(c.file, c.rng.Pos())
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < c.rng.End() {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := c.pass.ObjectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		ip := pn.Imported().Path()
		if ip != "sort" && ip != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if aid, ok := ast.Unparen(arg).(*ast.Ident); ok && c.pass.ObjectOf(aid) == obj {
				sorted = true
			}
		}
		return true
	})
	return sorted
}

// containsCall reports whether expr contains any function call (len and cap
// are allowed: they are pure).
func containsCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
				return true
			}
			found = true
			return false
		}
		return true
	})
	return found
}

// enclosingFunc returns the innermost function declaration or literal whose
// body spans pos.
func enclosingFunc(f *ast.File, pos token.Pos) ast.Node {
	var best ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil && n.Body.Pos() <= pos && pos < n.Body.End() {
				best = n
			}
		case *ast.FuncLit:
			if n.Body.Pos() <= pos && pos < n.Body.End() {
				best = n
			}
		}
		return true
	})
	return best
}

// exprString renders a short source form of e for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(e.X)
	default:
		return "expression"
	}
}
