package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/spec"
)

// fig8Grids sweeps every base scheme with and without RLB over repeated
// incasts (five initiations, no background workload): incast degree at a fixed total
// response size, then response size at a fixed degree. The paper sweeps
// degree 10-25 and response 4-10 MB; reduced fabrics scale both down.
func fig8Grids(s Scale, seed uint64) []spec.Grid {
	maxDeg := s.Base.Leaves*s.Base.HostsPerLeaf - 1
	degrees := sweepInts(maxDeg/3, maxDeg, 4)
	baseKB := 4 * 1000
	if capKB := s.Base.MaxFlowKB; capKB > 0 && baseKB > capKB*4 {
		baseKB = capKB * 4
	}
	grid := func(name string, base spec.Spec, axis spec.Axis) spec.Grid {
		base.IncastReps = 5
		return spec.Grid{Name: name, Seeds: s.seeds(), Base: base,
			Axes: []spec.Axis{{Field: "scheme", Strs: withRLB(FourSchemes)}, axis}}
	}
	degree, size := s.Spec(seed), s.Spec(seed)
	degree.IncastKB = baseKB
	size.IncastDegree = degrees[len(degrees)/2]
	return []spec.Grid{
		grid("fig8_degree", degree, spec.Axis{Field: "incastDegree", Ints: degrees}),
		grid("fig8_size", size, spec.Axis{Field: "incastKB", Ints: []int{baseKB, baseKB * 3 / 2, baseKB * 2, baseKB * 5 / 2}}),
	}
}

// fig8Tables reproduces Fig. 8: out-of-order ratio and incast completion
// time (a,c) vs. incast degree and (b,d) vs. total response size, two
// columns per sweep point.
func fig8Tables(_ Scale, runs []run) []*Table {
	degree, size := runs[0], runs[1]
	cols := func(row []Metrics) []float64 {
		var out []float64
		for _, m := range row {
			out = append(out, 100*m.OOORatio, m.ICTms)
		}
		return out
	}
	a := &Table{
		Title:   fmt.Sprintf("Fig. 8(a,c) — incast: OOO%% and completion time vs. degree (response %dKB)", degree.grid.Base.IncastKB),
		Headers: []string{"scheme"},
	}
	for _, d := range degree.cols() {
		a.Headers = append(a.Headers, fmt.Sprintf("ooo%%@%d", d), fmt.Sprintf("ict@%d", d))
	}
	pivot(a, degree, schemeOf, cols)
	base := degree.grid.Base
	a.AddNote("ict in ms; paper sweeps degree 10..25 on 288 hosts, this scale %v on %d hosts",
		degree.cols(), base.Leaves*base.HostsPerLeaf)

	b := &Table{
		Title:   fmt.Sprintf("Fig. 8(b,d) — incast: OOO%% and completion time vs. response size (degree %d)", size.grid.Base.IncastDegree),
		Headers: []string{"scheme"},
	}
	var bytes []int
	for _, kb := range size.cols() {
		mb := float64(kb) / 1000
		b.Headers = append(b.Headers, fmt.Sprintf("ooo%%@%.1fMB", mb), fmt.Sprintf("ict@%.1fMB", mb))
		bytes = append(bytes, kb*1000)
	}
	pivot(b, size, schemeOf, cols)
	b.AddNote("paper sweeps 4..10 MB; this scale sweeps %v bytes", bytes)
	return []*Table{a, b}
}
