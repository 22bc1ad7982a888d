package harness

import (
	"fmt"
	"strconv"

	"github.com/rlb-project/rlb/internal/spec"
)

// fig4Grids sweeps, in the Fig. 2 motivation scenario, (a) the number of
// paths the congested flow sprays over and (b) the number of continuous
// burst waves.
func fig4Grids(s Scale, seed uint64) []spec.Grid {
	grid := func(name string, axis spec.Axis) spec.Grid {
		return spec.Grid{Name: name, Seeds: s.seeds(), Base: s.MotivSpec(seed, 5, 2),
			Axes: []spec.Axis{{Field: "scheme", Strs: FourSchemes}, axis}}
	}
	return []spec.Grid{
		grid("fig4_paths", spec.Axis{Field: "sprayPaths", Ints: sweepInts(1, s.MotivSpines, 6)}),
		grid("fig4_bursts", spec.Axis{Field: "bursts", Ints: []int{1, 2, 3, 4, 5, 6}}),
	}
}

// fig4Tables reproduces Fig. 4: the ratio of out-of-order packets (a) as the
// congested flow is sprayed over more parallel paths (more paths paused by
// PFC -> more reordering for every scheme) and (b) as the number of
// continuous bursts grows.
func fig4Tables(_ Scale, runs []run) []*Table {
	paths, bursts := runs[0], runs[1]
	ooo := each(func(m Metrics) float64 { return m.OOOPct })
	a := &Table{
		Title:   "Fig. 4(a) — out-of-order packets (%) vs. affected paths",
		Headers: paths.headers("scheme", func(k int) string { return fmt.Sprintf("%dp", k) }),
	}
	pivot(a, paths, schemeOf, ooo)
	a.AddNote("paper sweeps 5..30 of 40 paths; this scale sweeps %v of %d",
		paths.cols(), paths.grid.Base.Motiv.Spines)
	b := &Table{
		Title:   "Fig. 4(b) — out-of-order packets (%) vs. continuous bursts",
		Headers: bursts.headers("scheme", strconv.Itoa),
	}
	pivot(b, bursts, schemeOf, ooo)
	return []*Table{a, b}
}

// sweepInts returns up to n roughly even values in [lo, hi], always
// including hi.
func sweepInts(lo, hi, n int) []int {
	if hi <= lo {
		return []int{hi}
	}
	if n < 2 {
		n = 2
	}
	var out []int
	prev := -1
	for i := 0; i < n; i++ {
		v := lo + (hi-lo)*i/(n-1)
		if v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}
