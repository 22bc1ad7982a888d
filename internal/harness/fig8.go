package harness

import "fmt"

// fig8Schemes are the eight schemes of Fig. 8.
var fig8Schemes = []string{
	"presto", "presto+rlb", "letflow", "letflow+rlb",
	"hermes", "hermes+rlb", "drill", "drill+rlb",
}

// fig8Dims returns the degree and size sweeps for a scale. The paper sweeps
// degree 10-25 and response 4-10 MB; reduced fabrics scale both down.
func fig8Dims(s Scale) (degrees []int, sizes []int, fixedDegree int, fixedSize int) {
	maxDeg := s.Base.Leaves*s.Base.HostsPerLeaf - 1
	degrees = sweepInts(maxDeg/3, maxDeg, 4)
	base := 4 * 1000 * 1000
	if capBytes := s.Base.MaxFlowKB * 1000; capBytes > 0 && base > capBytes*4 {
		base = capBytes * 4
	}
	sizes = []int{base, base * 3 / 2, base * 2, base * 5 / 2}
	fixedDegree = degrees[len(degrees)/2]
	fixedSize = base
	return
}

// Fig8Degree reproduces Fig. 8(a,c): out-of-order ratio and incast
// completion time vs. incast degree at a fixed total response size.
func Fig8Degree(s Scale, seed uint64) *Table {
	degrees, _, _, fixedSize := fig8Dims(s)
	t := &Table{
		Title:   fmt.Sprintf("Fig. 8(a,c) — incast: OOO%% and completion time vs. degree (response %dKB)", fixedSize/1000),
		Headers: []string{"scheme"},
	}
	for _, d := range degrees {
		t.Headers = append(t.Headers, fmt.Sprintf("ooo%%@%d", d), fmt.Sprintf("ict@%d", d))
	}
	fig8Rows(t, MustRunGridMetrics(Fig8DegreeGrid(s, seed)), len(degrees))
	t.AddNote("ict in ms; paper sweeps degree 10..25 on 288 hosts, this scale %v on %d hosts",
		degrees, s.Base.Leaves*s.Base.HostsPerLeaf)
	return t
}

// Fig8Size reproduces Fig. 8(b,d): out-of-order ratio and incast completion
// time vs. total response size at a fixed degree.
func Fig8Size(s Scale, seed uint64) *Table {
	_, sizes, fixedDegree, _ := fig8Dims(s)
	t := &Table{
		Title:   fmt.Sprintf("Fig. 8(b,d) — incast: OOO%% and completion time vs. response size (degree %d)", fixedDegree),
		Headers: []string{"scheme"},
	}
	for _, sz := range sizes {
		t.Headers = append(t.Headers, fmt.Sprintf("ooo%%@%.1fMB", float64(sz)/1e6), fmt.Sprintf("ict@%.1fMB", float64(sz)/1e6))
	}
	fig8Rows(t, MustRunGridMetrics(Fig8SizeGrid(s, seed)), len(sizes))
	t.AddNote("paper sweeps 4..10 MB; this scale sweeps %v bytes", sizes)
	return t
}

// fig8Rows renders one table row per scheme from scheme-major sweep results,
// points columns each: the averaged out-of-order ratio as a percentage and
// the mean incast completion time.
func fig8Rows(t *Table, results []Metrics, points int) {
	idx := 0
	for _, scheme := range fig8Schemes {
		row := []interface{}{scheme}
		for p := 0; p < points; p++ {
			row = append(row, 100*results[idx].OOORatio, results[idx].ICTms)
			idx++
		}
		t.AddRow(row...)
	}
}
