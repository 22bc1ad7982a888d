package harness

import (
	"fmt"
	"strings"

	"github.com/rlb-project/rlb/internal/spec"
)

// Figure is one figure of the paper's evaluation (or this repo's extension
// experiment): the declarative sweep grids it runs and the layout that turns
// their metrics into tables. Each figure's grids and layout sit together in
// its own file; the layout reads axis values and base fields from the grids
// rather than working them out again.
type Figure struct {
	// Name is the figure's key as `figures -fig` spells it.
	Name string
	// Grids declares the experiments behind the figure at a scale and seed;
	// `figures -dump-spec` serializes them.
	Grids func(s Scale, seed uint64) []spec.Grid
	// render lays out the tables from one run per grid, in Grids order.
	render func(s Scale, runs []run) []*Table
}

// Figures is every figure in presentation order.
var Figures = []Figure{
	{Name: "3", Grids: fig3Grids, render: fig3Tables},
	{Name: "4", Grids: fig4Grids, render: fig4Tables},
	{Name: "6", Grids: fig6Grids, render: fig6Tables},
	{Name: "7", Grids: fig7Grids, render: fig7Tables},
	{Name: "8", Grids: fig8Grids, render: fig8Tables},
	{Name: "9", Grids: fig9Grids, render: fig9Tables},
	{Name: "10", Grids: fig10Grids, render: fig10Tables},
	{Name: "irn", Grids: irnGrids, render: irnTables},
}

// FigureByName returns the registered figure with the given name; the error
// lists the valid names.
func FigureByName(name string) (Figure, error) {
	names := make([]string, len(Figures))
	for i, f := range Figures {
		if f.Name == name {
			return f, nil
		}
		names[i] = f.Name
	}
	return Figure{}, fmt.Errorf("harness: unknown figure %q (valid: %s)", name, strings.Join(names, ", "))
}

// Tables expands all of the figure's grids, runs every cell as one
// RunSpecsAveraged batch, and renders the figure's tables.
func (f Figure) Tables(s Scale, seed uint64) ([]*Table, error) {
	grids := f.Grids(s, seed)
	runs := make([]run, len(grids))
	var cells []spec.Spec
	for i, g := range grids {
		gc, err := g.Cells()
		if err != nil {
			return nil, fmt.Errorf("harness: grid %q: %w", g.Name, err)
		}
		runs[i] = run{grid: g, cells: gc}
		cells = append(cells, gc...)
	}
	ms, err := RunSpecsAveraged(cells, s.seeds())
	if err != nil {
		return nil, fmt.Errorf("figure %s: %w", f.Name, err)
	}
	for i := range runs {
		n := len(runs[i].cells)
		runs[i].ms, ms = ms[:n], ms[n:]
	}
	return f.render(s, runs), nil
}

// run is one grid's outcome: its expanded cells and their seed-averaged
// metrics, both in cell order.
type run struct {
	grid  spec.Grid
	cells []spec.Spec
	ms    []Metrics
}

// cols returns the values of the grid's last axis, the tables' columns.
func (r run) cols() []int { return r.grid.Axes[len(r.grid.Axes)-1].Ints }

// headers returns first followed by name(v) for every column value v.
func (r run) headers(first string, name func(v int) string) []string {
	hs := []string{first}
	for _, v := range r.cols() {
		hs = append(hs, name(v))
	}
	return hs
}

// pivot adds one table row per combination of the grid's leading axes:
// label of the row's first cell, then cols of the row's metrics. Cells
// expand row-major with the last axis fastest, so a row is one contiguous
// run of len(cols()) cells.
func pivot(t *Table, r run, label func(spec.Spec) string, cols func(row []Metrics) []float64) {
	n := len(r.cols())
	for i := 0; i < len(r.cells); i += n {
		row := []interface{}{label(r.cells[i])}
		for _, v := range cols(r.ms[i : i+n]) {
			row = append(row, v)
		}
		t.AddRow(row...)
	}
}

// each maps one metric of every cell in a row to that cell's column.
func each(metric func(Metrics) float64) func([]Metrics) []float64 {
	return func(row []Metrics) []float64 {
		out := make([]float64, len(row))
		for i, m := range row {
			out[i] = metric(m)
		}
		return out
	}
}

// withRLB interleaves each base scheme with its +rlb variant (presto,
// presto+rlb, letflow, letflow+rlb, ...).
func withRLB(bases []string) []string {
	out := make([]string, 0, 2*len(bases))
	for _, b := range bases {
		out = append(out, b, b+spec.RLBSuffix)
	}
	return out
}

// schemeOf labels a row by its scheme.
func schemeOf(c spec.Spec) string { return c.Scheme }
