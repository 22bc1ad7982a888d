package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/spec"
)

// fig10Grids is the parameter sensitivity study: DRILL+RLB at 50% load under
// Web Server and Data Mining, sweeping (a) the PFC-warning threshold Qth
// from 20% to 80% of the PFC threshold and (b) the queue-derivative sampling
// interval Δt from 2 to 5 us.
func fig10Grids(s Scale, seed uint64) []spec.Grid {
	grid := func(name string, param spec.Axis) spec.Grid {
		base := s.Spec(seed)
		base.Scheme = "drill" + spec.RLBSuffix
		base.LoadPct = 50
		return spec.Grid{
			Name:  name,
			Seeds: s.seeds(),
			Base:  base,
			Axes: []spec.Axis{
				{Field: "workload", Strs: []string{"webserver", "datamining"}},
				param,
			},
		}
	}
	return []spec.Grid{
		grid("fig10_qth", spec.Axis{Field: "qthFracPct", Ints: []int{20, 30, 40, 50, 60, 70, 80}}),
		grid("fig10_deltat", spec.Axis{Field: "deltaTNs", Ints: []int{2000, 2500, 3000, 3500, 4000, 4500, 5000}}),
	}
}

// fig10Tables reproduces Fig. 10: AFCT per workload across each sweep,
// normalized to the sweep's best value (1.0 = optimum).
func fig10Tables(_ Scale, runs []run) []*Table {
	qth, deltaT := runs[0], runs[1]
	workload := func(c spec.Spec) string { return c.Workload }
	a := &Table{
		Title:   "Fig. 10(a) — sensitivity to Qth (normalized AFCT, " + qth.grid.Base.Scheme + ")",
		Headers: qth.headers("workload", func(pct int) string { return fmt.Sprintf("%d%%", pct) }),
	}
	pivot(a, qth, workload, normalized)
	b := &Table{
		Title:   "Fig. 10(b) — sensitivity to Δt (normalized AFCT, " + deltaT.grid.Base.Scheme + ")",
		Headers: deltaT.headers("workload", func(ns int) string { return nsTime(ns).String() }),
	}
	pivot(b, deltaT, workload, normalized)
	return []*Table{a, b}
}

// normalized divides every AFCT of a sweep by the sweep's smallest nonzero
// one; a zero AFCT (no completed flows) stays 0.
func normalized(row []Metrics) []float64 {
	best := 0.0
	for _, m := range row {
		if m.AFCT > 0 && (best == 0 || m.AFCT < best) {
			best = m.AFCT
		}
	}
	out := make([]float64, len(row))
	if best == 0 {
		return out
	}
	for i, m := range row {
		out[i] = m.AFCT / best
	}
	return out
}
