package harness

import "fmt"

// Fig4Paths reproduces Fig. 4(a): the ratio of out-of-order packets as the
// congested flow is sprayed over more parallel paths (more paths paused by
// PFC -> more reordering for every scheme).
func Fig4Paths(s Scale, seed uint64) *Table {
	t := &Table{
		Title:   "Fig. 4(a) — out-of-order packets (%) vs. affected paths",
		Headers: []string{"scheme"},
	}
	paths := sweepInts(1, s.MotivSpines, 6)
	for _, k := range paths {
		t.Headers = append(t.Headers, fmt.Sprintf("%dp", k))
	}
	_, results := MustRunGrid(Fig4PathsGrid(s, seed))
	idx := 0
	for _, name := range FourSchemes {
		row := []interface{}{name}
		for range paths {
			row = append(row, results[idx].OOOPct)
			idx++
		}
		t.AddRow(row...)
	}
	t.AddNote("paper sweeps 5..30 of 40 paths; this scale sweeps %v of %d", paths, s.MotivSpines)
	return t
}

// Fig4Bursts reproduces Fig. 4(b): out-of-order packet ratio as the number
// of continuous bursts grows.
func Fig4Bursts(s Scale, seed uint64) *Table {
	t := &Table{
		Title:   "Fig. 4(b) — out-of-order packets (%) vs. continuous bursts",
		Headers: []string{"scheme", "1", "2", "3", "4", "5", "6"},
	}
	_, results := MustRunGrid(Fig4BurstsGrid(s, seed))
	idx := 0
	for _, name := range FourSchemes {
		row := []interface{}{name}
		for range t.Headers[1:] {
			row = append(row, results[idx].OOOPct)
			idx++
		}
		t.AddRow(row...)
	}
	return t
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
