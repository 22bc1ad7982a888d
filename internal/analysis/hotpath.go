package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotpath is the static form of PR 2's 0-allocs/op benchmark assertion:
// every function reachable from a sim.Handler.OnEvent implementation — the
// per-event dispatch path the simulator executes millions of times per run —
// must not allocate. The call graph marks the reachable set (through
// concrete calls, devirtualized interface calls like Router.Route and the
// scheduler's push/popLE, and locally-called function literals), and this
// analyzer flags the allocation sites inside it:
//
//   - new(T) and make(...)
//   - map and slice composite literals
//   - &T{...} composite literals (heap-escaping in the general case)
//   - growing append — amortized free-list growth is the sanctioned
//     exception, annotated //simlint:allow(hotpath) at each site
//   - escaping function literals (closure capture allocates; a literal
//     bound to a local and only ever called runs inline and is exempt)
//   - fmt calls and non-constant string concatenation (boxing/building)
//
// It also enforces the data plane's map discipline: built-in map indexing,
// assignment, and delete in a hot function are flagged even though they may
// not allocate. A built-in map access hashes with runtime calls and chases
// buckets per packet; hot per-packet state belongs in internal/flatmap's
// open-addressed tables or dense stamp rows. Cold-path maps (setup,
// reporting) are fine — they are not reachable from OnEvent. Map ranges are
// the determinism analyzer's: it bans them in every simulation package, hot
// or cold.
//
// Arguments of panic(...) are exempt: the failure path is allowed to format.
// Observer packages (invariant) outside the simPackages list are not
// reported — they are opt-in diagnostics, not the steady-state data plane.
// internal/telemetry is in the list: its sampler tick and event record path
// run inside the event loop and are checked like any other hot function.
// Each finding carries the shortest OnEvent call chain that makes the
// function hot, so the fix target is visible from the message alone.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc: "forbid heap allocation in functions reachable from " +
		"sim.Handler.OnEvent implementations (the event dispatch hot path)",
	Run: runHotpath,
}

func runHotpath(p *Pass) {
	if !inSimPackage(p.Pkg.Path) {
		return
	}
	cg := p.Mod.CallGraph()
	pred := cg.hotSet()
	for _, node := range cg.sortedNodes() {
		if node.pkg != p.Pkg {
			continue
		}
		if _, hot := pred[node]; !hot {
			continue
		}
		checkAllocs(p, node, trace(pred, node))
	}
}

// checkAllocs flags every allocation site in node's own body (nested
// function literals are their own nodes and are checked if reachable).
func checkAllocs(p *Pass, node *cgNode, chain string) {
	report := func(pos token.Pos, what string) {
		p.Reportf(pos, "%s in event hot path (%s); preallocate or reuse", what, chain)
	}
	reportMap := func(pos token.Pos, what string) {
		p.Reportf(pos, "%s in event hot path (%s); use internal/flatmap or a dense slice", what, chain)
	}
	panicArgs := panicArgRanges(node.body)
	exempt := func(pos token.Pos) bool {
		for _, r := range panicArgs {
			if r[0] <= pos && pos < r[1] {
				return true
			}
		}
		return false
	}
	litEsc := escapingLits(p.Pkg, node.body)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == node.lit {
				return true
			}
			if litEsc[n] && !exempt(n.Pos()) {
				report(n.Pos(), "escaping function literal (closure allocates)")
			}
			return false // the literal's body is its own call-graph node
		case *ast.CallExpr:
			if exempt(n.Pos()) {
				return true
			}
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if _, isBuiltin := p.ObjectOf(id).(*types.Builtin); isBuiltin {
					switch id.Name {
					case "new":
						report(n.Pos(), "new(...)")
					case "make":
						report(n.Pos(), "make(...)")
					case "append":
						report(n.Pos(), "append (may grow the backing array)")
					case "delete":
						if len(n.Args) == 2 && isMapType(p.TypeOf(n.Args[0])) {
							reportMap(n.Pos(), "built-in map delete")
						}
					}
					return true
				}
			}
			if fn := calleeFunc(p, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				report(n.Pos(), "fmt."+fn.Name()+" (formats and boxes arguments)")
			}
		case *ast.CompositeLit:
			if exempt(n.Pos()) {
				return true
			}
			t := p.TypeOf(n)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				report(n.Pos(), "map literal")
			case *types.Slice:
				report(n.Pos(), "slice literal")
			}
		case *ast.UnaryExpr:
			if n.Op != token.AND || exempt(n.Pos()) {
				return true
			}
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				report(n.Pos(), "&composite literal (heap allocation)")
			}
		case *ast.IndexExpr:
			if exempt(n.Pos()) {
				return true
			}
			if isMapType(p.TypeOf(n.X)) {
				reportMap(n.Pos(), "built-in map access (hash + bucket probe per packet)")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && !exempt(n.Pos()) {
				if t := p.TypeOf(n); t != nil {
					if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						if tv, ok := p.Pkg.Info.Types[n]; !ok || tv.Value == nil {
							report(n.Pos(), "string concatenation")
						}
					}
				}
			}
		}
		return true
	}
	ast.Inspect(node.body, walk)
}

// panicArgRanges returns the source ranges of every panic(...) argument list
// in body: formatting a message on the failure path is not a hot-path cost.
func panicArgRanges(body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			out = append(out, [2]token.Pos{call.Lparen, call.Rparen + 1})
		}
		return true
	})
	return out
}

// escapingLits classifies every function literal in body: a literal is
// non-escaping when it is immediately invoked, or bound to local variables
// whose every use is a direct call — those run inline on the current stack.
// Anything else (passed as an argument, stored in a field, returned)
// escapes to the heap with its captures.
func escapingLits(pkg *Package, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	esc := map[*ast.FuncLit]bool{}
	boundTo := map[*ast.FuncLit][]types.Object{}
	litOf := map[types.Object][]*ast.FuncLit{}

	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	if len(lits) == 0 {
		return esc
	}

	for obj, ls := range litBindings(pkg, body) {
		for _, l := range ls {
			boundTo[l] = append(boundTo[l], obj)
			litOf[obj] = append(litOf[obj], l)
		}
	}

	// A literal's binding variable must only be used in call position
	// (f(...)), not passed or stored; assignment LHS occurrences re-binding
	// the variable do not count as uses.
	onlyCalled := map[types.Object]bool{}
	for obj := range litOf {
		onlyCalled[obj] = true
	}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := pkg.Info.ObjectOf(id)
			if obj != nil && onlyCalled[obj] && !identIsCallFunOrBinding(stack, id) {
				onlyCalled[obj] = false
			}
		}
		stack = append(stack, n)
		return true
	})

	// Immediately-invoked literals never escape.
	iife := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
				iife[lit] = true
			}
		}
		return true
	})

	for _, lit := range lits {
		if iife[lit] {
			continue
		}
		objs := boundTo[lit]
		ok := len(objs) > 0
		for _, obj := range objs {
			if !onlyCalled[obj] {
				ok = false
			}
		}
		if !ok {
			esc[lit] = true
		}
	}
	return esc
}

// identIsCallFunOrBinding reports whether, given the ancestor stack, ident id
// is the function operand of a call (f(...)) or the left-hand side of an
// assignment/declaration (a re-binding, not a use).
func identIsCallFunOrBinding(stack []ast.Node, id *ast.Ident) bool {
	// Walk inward past parens.
	var parent ast.Node
	child := ast.Node(id)
	for i := len(stack) - 1; i >= 0; i-- {
		if p, ok := stack[i].(*ast.ParenExpr); ok {
			child = p
			continue
		}
		parent = stack[i]
		break
	}
	switch p := parent.(type) {
	case *ast.CallExpr:
		return ast.Unparen(p.Fun) == ast.Unparen(child.(ast.Expr))
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == child {
				return true
			}
		}
	case *ast.ValueSpec:
		for _, name := range p.Names {
			if name == id {
				return true
			}
		}
	}
	return false
}
