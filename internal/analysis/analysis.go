// Package analysis is a self-contained static-analysis framework plus the
// simlint analyzer suite that enforces this repository's simulation
// discipline at compile time: determinism (no wall clock, no math/rand, no
// goroutines, no map range in simulation packages), packet-pool
// conservation (pooled frames are constructed inside internal/fabric and
// consumed on every terminating path), timer-handle hygiene (sim.Timer is a
// value handle; pointers reintroduce stale-handle bugs), unit discipline (no
// raw integer literals added to sim.Time or units.Bandwidth values), and an
// allocation-free, map-free event hot path.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) but is built only on the standard library
// (go/parser + go/types with the source importer), so the module stays
// dependency-free and the suite runs in hermetic build environments.
//
// Findings are suppressed, one at a time and with a mandatory justification,
// by an annotation on the offending line or the line above:
//
//	//simlint:allow(determinism) wall-clock only feeds the Wall perf counter
//
// An annotation without a reason, or naming an unknown analyzer, is itself a
// finding. See TESTING.md, "Static analysis tier".
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path (module-relative packages keep their full
	// module-qualified path).
	Path string
	// Fset maps positions for every file of every package in this load.
	Fset *token.FileSet
	// Files are the parsed non-test source files, sorted by filename.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds the type-checker's expression facts for Files.
	Info *types.Info
}

// Analyzer is one named check over a single package.
type Analyzer struct {
	// Name is the identifier used in findings and //simlint:allow(name).
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) run and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Mod is the interprocedural scope this package was analyzed in; never
	// nil.
	Mod   *Module
	diags *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil when untracked.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// pathHasSuffix reports whether import path p is exactly suffix or ends with
// "/"+suffix. Matching by suffix lets the analyzers recognize both the real
// module packages and the fixture stand-ins under testdata.
func pathHasSuffix(p, suffix string) bool {
	if p == suffix {
		return true
	}
	n := len(p) - len(suffix)
	return n > 0 && p[n-1] == '/' && p[n:] == suffix
}

// isPtrToNamed reports whether t is a pointer to the named type
// pkgSuffix.name.
func isPtrToNamed(t types.Type, pkgSuffix, name string) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamed(ptr.Elem(), pkgSuffix, name)
}

// isNamed reports whether the named type t is defined in a package whose
// import path ends with pkgSuffix and has the given name.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// isMapType reports whether t's underlying type is a built-in map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
