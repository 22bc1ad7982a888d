package harness

import "github.com/rlb-project/rlb/internal/spec"

// irnModes labels irnGrids' three transport modes, in grid order.
var irnModes = []string{"pfc+gbn", "pfc+gbn+rlb", "lossy+irn"}

// irnGrids declares an extension experiment beyond the paper's figures: the
// three positions in the design space the paper's related work (§5)
// sketches, on the same fabric and workload, each a scheme sweep over the
// two base LBs (letflow, drill):
//
//   - lossless + go-back-N (the status quo RLB targets),
//   - lossless + go-back-N + RLB (the paper's proposal),
//   - lossy + IRN-style selective repeat (Mittal et al.: drop PFC, fix the
//     transport instead).
func irnGrids(s Scale, seed uint64) []spec.Grid {
	base := s.Spec(seed)
	base.Workload = "webserver"
	base.LoadPct = 60

	gbn := spec.Grid{Name: "ext_irn_pfc_gbn", Seeds: s.seeds(), Base: base.Clone(),
		Axes: []spec.Axis{{Field: "scheme", Strs: []string{"letflow", "drill"}}}}

	rlb := spec.Grid{Name: "ext_irn_pfc_gbn_rlb", Seeds: s.seeds(), Base: base.Clone(),
		Axes: []spec.Axis{{Field: "scheme", Strs: []string{"letflow+rlb", "drill+rlb"}}}}

	irnBase := base.Clone()
	irnBase.PFCOff = true
	irnBase.SelectiveRepeat = true
	irn := spec.Grid{Name: "ext_irn_lossy_irn", Seeds: s.seeds(), Base: irnBase,
		Axes: []spec.Axis{{Field: "scheme", Strs: []string{"letflow", "drill"}}}}

	return []spec.Grid{gbn, rlb, irn}
}

// irnTables compares reordering cost vs. loss-recovery cost. The table
// reads base-major (all three modes of letflow, then drill), while each
// grid holds one mode's two bases.
func irnTables(_ Scale, runs []run) []*Table {
	t := &Table{
		Title: "Extension — lossless+GBN vs lossless+GBN+RLB vs lossy+IRN (Web Server @ 60%)",
		Headers: []string{"base", "mode", "AFCT (ms)", "p99 (ms)", "OOO%",
			"pauses/ms", "done"},
	}
	for b, base := range runs[0].cells {
		for m, r := range runs {
			x := r.ms[b]
			t.AddRow(base.Scheme, irnModes[m], x.AFCT, x.P99, x.OOOPct, x.PauseRate, x.Completed)
		}
	}
	t.AddNote("IRN keeps out-of-order arrivals and retransmits selectively, so its OOO%% is harmless; GBN discards them")
	return []*Table{t}
}
