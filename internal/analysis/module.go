package analysis

import (
	"sort"
)

// Module is the interprocedural analysis scope: a set of loaded packages
// (typically the requested packages plus their transitive in-tree
// dependencies) over which module-wide facts — the call graph and
// per-function ownership summaries — are computed once and shared by every
// analyzer pass.
type Module struct {
	// Pkgs are the packages in scope, sorted by import path.
	Pkgs []*Package

	byPath map[string]*Package

	cg   *callGraph
	sums *summaries
}

// NewModule builds an analysis scope over pkgs. Interprocedural facts are
// computed lazily on first use and then shared.
func NewModule(pkgs []*Package) *Module {
	sorted := make([]*Package, len(pkgs))
	copy(sorted, pkgs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	m := &Module{Pkgs: sorted, byPath: map[string]*Package{}}
	for _, p := range sorted {
		m.byPath[p.Path] = p
	}
	return m
}

// CallGraph returns the module's call graph, building it on first use.
func (m *Module) CallGraph() *callGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

// Summaries returns the module's packet-ownership summaries, computing them
// on first use.
func (m *Module) Summaries() *summaries {
	if m.sums == nil {
		m.sums = computeSummaries(m)
	}
	return m.sums
}

// Analyze runs the analyzers over one in-scope package with the module's
// interprocedural facts available on the pass, returning the surviving
// findings sorted by position: raw analyzer findings minus those suppressed
// by a valid //simlint:allow annotation, plus one finding per malformed
// annotation.
func (m *Module) Analyze(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Mod: m, diags: &raw}
		a.Run(pass)
	}
	out := applyAllows(pkg, analyzers, raw)
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders findings by file, line, column, then analyzer name,
// so lint output is diff-stable across runs and machines.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
