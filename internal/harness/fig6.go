package harness

import "github.com/rlb-project/rlb/internal/spec"

// fig6Grids runs every base scheme with and without RLB under Web Search at
// 60% load on the symmetric fabric.
func fig6Grids(s Scale, seed uint64) []spec.Grid {
	base := s.Spec(seed)
	base.Workload = "websearch"
	base.LoadPct = 60
	return []spec.Grid{{
		Name:  "fig6",
		Seeds: s.seeds(),
		Base:  base,
		Axes:  []spec.Axis{{Field: "scheme", Strs: withRLB(FourSchemes)}},
	}}
}

// fig6Tables reproduces Fig. 6: the FCT distribution of every flow for each
// base scheme with and without RLB. The paper plots full CDFs; this table
// prints the distribution's quantiles plus the headline tail change.
func fig6Tables(_ Scale, runs []run) []*Table {
	r := runs[0]
	t := &Table{
		Title: "Fig. 6 — FCT of all flows, symmetric topology, Web Search @ 60% load",
		Headers: []string{"scheme", "done", "p25 (ms)", "p50 (ms)", "p75 (ms)",
			"p90 (ms)", "p99 (ms)", "AFCT (ms)", "OOO%"},
	}
	for i, c := range r.cells {
		m := r.ms[i]
		t.AddRow(c.Scheme, m.Completed, m.P25, m.P50, m.P75, m.P90, m.P99, m.AFCT, m.OOOPct)
	}
	// Headline: tail change per base scheme (paper: cuts of 58/67/72/54%).
	for i := 0; i < len(r.cells); i += 2 {
		van, rlb := r.ms[i], r.ms[i+1]
		if van.P99 > 0 {
			red := 100 * (van.P99 - rlb.P99) / van.P99
			t.AddNote("%s: RLB changes p99 FCT by %+.0f%% (paper: cuts up to 58/67/72/54%% for presto/letflow/hermes/drill)",
				r.cells[i].Scheme, -red)
		}
	}
	return []*Table{t}
}
