package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// Suite returns the full simlint analyzer suite in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{Determinism, Poolcheck, Timercheck, Unitsafe, Hotpath}
}

// RunModule loads every package of the module rooted at root and runs the
// suite over each, returning all surviving findings. Load or type-check
// failures are returned as the error; findings are not errors.
func RunModule(root string) ([]Diagnostic, error) {
	root, modPath, err := FindModule(root)
	if err != nil {
		return nil, err
	}
	paths, err := ModulePackages(root, modPath)
	if err != nil {
		return nil, err
	}
	return RunPackages(NewLoader(ModuleResolver(root, modPath)), paths)
}

// RunPackages loads each import path with ld, builds one interprocedural
// module over everything loaded (the requested packages plus their in-tree
// dependencies, so call-graph facts cross package boundaries), and runs the
// suite over each requested package. Findings are reported only for the
// requested packages and returned globally sorted by file:line:col:analyzer,
// so output is diff-stable regardless of request order.
func RunPackages(ld *Loader, paths []string) ([]Diagnostic, error) {
	suite := Suite()
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		dir, ok := ld.Resolve(path)
		if !ok {
			return nil, fmt.Errorf("analysis: cannot resolve %s", path)
		}
		pkg, err := ld.Load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	mod := NewModule(ld.Loaded())
	var all []Diagnostic
	for _, pkg := range pkgs {
		all = append(all, mod.Analyze(pkg, suite)...)
	}
	sortDiagnostics(all)
	return all, nil
}

// Print writes findings one per line in file:line:col form.
func Print(w io.Writer, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}

// jsonDiagnostic is the machine-readable form of one finding.
type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// PrintJSON writes findings as JSON, one object per line (JSON Lines), for
// CI artifacts and tooling.
func PrintJSON(w io.Writer, diags []Diagnostic) error {
	enc := json.NewEncoder(w)
	for _, d := range diags {
		jd := jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		}
		if err := enc.Encode(jd); err != nil {
			return err
		}
	}
	return nil
}
