package harness

import "github.com/rlb-project/rlb/internal/spec"

// fig3Grids sweeps the four base schemes with PFC on/off in the Fig. 2
// motivation scenario.
func fig3Grids(s Scale, seed uint64) []spec.Grid {
	return []spec.Grid{{
		Name:  "fig3",
		Seeds: s.seeds(),
		Base:  s.MotivSpec(seed, 5, 2),
		Axes: []spec.Axis{
			{Field: "scheme", Strs: FourSchemes},
			{Field: "pfcOff", Ints: []int{0, 1}},
		},
	}}
}

// fig3Tables reproduces Fig. 3: (a) PFC pause rate, (b) 99th-percentile
// out-of-order degree, (c) average FCT and (d) 99th percentile FCT of the
// background flows, per scheme with PFC enabled vs. disabled.
func fig3Tables(s Scale, runs []run) []*Table {
	r := runs[0]
	t := &Table{
		Title: "Fig. 3 — LB schemes with vs. without PFC (motivation scenario)",
		Headers: []string{"scheme", "pfc", "pause/ms", "p99 OOD (pkts)", "OOO%",
			"AFCT (ms)", "p99 FCT (ms)", "bg flows done"},
	}
	for i, c := range r.cells {
		m := r.ms[i]
		pfc := "on"
		if c.PFCOff {
			pfc = "off"
		}
		t.AddRow(c.Scheme, pfc, m.PauseRate, m.OODp99, m.OOOPct, m.AFCT, m.P99, m.Completed)
	}
	motiv := r.grid.Base.Motiv
	t.AddNote("scale=%s: %d paths, %d bg pairs, %d seeds; paper uses 40 paths, 100 pairs",
		s.Name, motiv.Spines, motiv.Hosts, r.grid.Seeds)
	return []*Table{t}
}
