package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{0.7, 1.0, 1.3, 0.8, 1.2} // quartiles 0.75..1.25: spread 50%
	cases := []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"identical", steady, steady, true, "same"},
		{"within bound", steady, scale(steady, 1.05), true, "same"},
		{"slower", steady, scale(steady, 1.2), true, "worse"},
		{"faster", steady, scale(steady, 0.8), true, "better"},
		{"higher is better", steady, scale(steady, 0.8), false, "worse"},
		{"wide and overlapping", wide, scale(wide, 1.15), true, "unresolved"},
		{"wide but separated", wide, scale(wide, 0.4), true, "better"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, 0.1, c.lowerBetter); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

// writeRecords writes n records of workload w, each with wall_s = wall, as
// run output lines followed by a result line.
func writeRecords(t *testing.T, file string, n int, m machine, seed uint64, wall float64) {
	t.Helper()
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for i := 0; i < n; i++ {
		rec := &record{Workload: "w", Seed: seed, Machine: m, Correct: true, Attempted: 1,
			Metrics: map[string]metric{"wall_s": {Value: wall, Unit: "s"}}}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(result{Correct: true, Attempted: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	box := machine{CPU: "cpu", NProc: 2, GOMAXPROCS: 1}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")

	writeRecords(t, a, minRuns, box, 1, 1.0)
	writeRecords(t, b, minRuns, box, 1, 1.5)
	var out strings.Builder
	if err := compareFiles(&out, spec, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("a 50%% slower side is not reported worse:\n%s", out.String())
	}

	refused := []struct {
		name string
		prep func()
	}{
		{"seed", func() { writeRecords(t, b, minRuns, box, 2, 1.0) }},
		{"machine", func() { writeRecords(t, b, minRuns, machine{CPU: "other", NProc: 2, GOMAXPROCS: 1}, 1, 1.0) }},
		{"GOMAXPROCS", func() { writeRecords(t, b, minRuns, machine{CPU: "cpu", NProc: 2, GOMAXPROCS: 2}, 1, 1.0) }},
		{"too few runs", func() { writeRecords(t, b, minRuns-1, box, 1, 1.0) }},
	}
	for _, r := range refused {
		r.prep()
		if err := compareFiles(&strings.Builder{}, spec, a, b); err == nil {
			t.Errorf("records differing in %s were compared", r.name)
		}
	}
}

// TestBenchmarkFileAgrees holds BENCHMARK.json, which the driver of the
// benchmark reads, to the metrics and workloads this program produces.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)

	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, committed workload files %q", got, want)
	}

	var setup float64
	for _, d := range bf.EndToEnd {
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > setup {
			t.Errorf("%s: bound %v outside (0, setup_s bound %v]", d.Name, d.Bound, setup)
		}
	}
}
