package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/workload"
)

// fig7Grids sweeps DRILL and Hermes with and without RLB x load 0.2-0.7 on
// the asymmetric fabric (20% of leaf-spine links at quarter rate), one grid
// per realistic workload.
func fig7Grids(s Scale, seed uint64) []spec.Grid {
	var gs []spec.Grid
	for _, wl := range workload.Names() {
		base := s.Spec(seed)
		base.Workload = wl
		base.AsymPct = 20
		gs = append(gs, spec.Grid{
			Name:  "fig7_" + wl,
			Seeds: s.seeds(),
			Base:  base,
			Axes: []spec.Axis{
				{Field: "scheme", Strs: []string{"drill", "drill+rlb", "hermes", "hermes+rlb"}},
				{Field: "loadPct", Ints: []int{20, 30, 40, 50, 60, 70}},
			},
		})
	}
	return gs
}

// fig7Tables reproduces Fig. 7: average FCT per scheme and load, one table
// per workload.
func fig7Tables(_ Scale, runs []run) []*Table {
	var tables []*Table
	for _, r := range runs {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 7 — AFCT (ms) on asymmetric topology, %s workload", r.grid.Base.Workload),
			Headers: r.headers("scheme", func(l int) string { return fmt.Sprintf("load %.1f", float64(l)/100) }),
		}
		pivot(t, r, schemeOf, each(func(m Metrics) float64 { return m.AFCT }))
		tables = append(tables, t)
	}
	return tables
}
