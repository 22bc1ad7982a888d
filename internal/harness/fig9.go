package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/spec"
)

// fig9Grids is the recirculation ablation, one grid per workload (Web
// Server, Data Mining): Presto+RLB and Hermes+RLB with recirculation
// disabled (noRecirc=1 first, matching the paper's "W/O Recir." row order)
// vs. enabled, across three loads. "W/O Recir." always reroutes on a
// warning.
func fig9Grids(s Scale, seed uint64) []spec.Grid {
	var gs []spec.Grid
	for _, wl := range []string{"webserver", "datamining"} {
		base := s.Spec(seed)
		base.Workload = wl
		gs = append(gs, spec.Grid{
			Name:  "fig9_" + wl,
			Seeds: s.seeds(),
			Base:  base,
			Axes: []spec.Axis{
				{Field: "scheme", Strs: []string{"presto+rlb", "hermes+rlb"}},
				{Field: "noRecirc", Ints: []int{1, 0}},
				{Field: "loadPct", Ints: []int{40, 60, 80}},
			},
		})
	}
	return gs
}

// fig9Tables reproduces Fig. 9 (deep dive): the 99th-percentile FCT benefit
// of packet recirculation, one table per workload.
func fig9Tables(_ Scale, runs []run) []*Table {
	label := func(c spec.Spec) string {
		if c.NoRecirc {
			return c.Scheme + " w/o recir."
		}
		return c.Scheme
	}
	var tables []*Table
	for _, r := range runs {
		t := &Table{
			Title:   fmt.Sprintf("Fig. 9 — p99 FCT (ms), recirculation ablation, %s workload", r.grid.Base.Workload),
			Headers: r.headers("scheme", func(l int) string { return fmt.Sprintf("load %d%%", l) }),
		}
		pivot(t, r, label, each(func(m Metrics) float64 { return m.P99 }))
		tables = append(tables, t)
	}
	return tables
}
