package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// boundDef is an end-to-end metric as BENCHMARK.json declares it: better is
// "lower" or "higher", and bound is the share of the baseline median by which
// the metric may get worse before a change counts as a regression.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

func loadBenchmarkFile(file string) (*benchmarkFile, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &b, nil
}

// readRecords returns the workload records in a file of run outputs: every
// line that holds a record. Result lines and other text are skipped.
func readRecords(file string) ([]*record, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20) // traced records carry every span on one line
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Workload != "" {
			recs = append(recs, &rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return recs, nil
}

// minRuns is the fewest runs of a workload each side of a comparison needs.
const minRuns = 5

// compareFiles prints, for each workload in both files and each end-to-end
// metric of specFile, the two sides' medians and quartiles and a verdict.
// It refuses records measured on different machines, with different
// GOMAXPROCS or with different seeds, since their numbers do not compare.
func compareFiles(w io.Writer, specFile, fileA, fileB string) error {
	bf, err := loadBenchmarkFile(specFile)
	if err != nil {
		return err
	}
	a, err := readRecords(fileA)
	if err != nil {
		return err
	}
	b, err := readRecords(fileB)
	if err != nil {
		return err
	}
	all := append(append([]*record(nil), a...), b...)
	if len(all) == 0 {
		return fmt.Errorf("no records in %s or %s", fileA, fileB)
	}
	ref := all[0]
	for _, r := range all[1:] {
		switch {
		case r.Machine.CPU != ref.Machine.CPU || r.Machine.NProc != ref.Machine.NProc:
			return fmt.Errorf("records come from different machines (%q x%d, %q x%d)",
				ref.Machine.CPU, ref.Machine.NProc, r.Machine.CPU, r.Machine.NProc)
		case r.Machine.GOMAXPROCS != ref.Machine.GOMAXPROCS:
			return fmt.Errorf("records ran at GOMAXPROCS %d and %d", ref.Machine.GOMAXPROCS, r.Machine.GOMAXPROCS)
		case r.Seed != ref.Seed:
			return fmt.Errorf("records ran at seeds %d and %d", ref.Seed, r.Seed)
		}
	}
	byName := func(recs []*record) map[string][]*record {
		m := map[string][]*record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	ga, gb := byName(a), byName(b)
	var names []string
	for name := range ga {
		if _, ok := gb[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no workload", fileA, fileB)
	}
	for _, name := range names {
		if len(ga[name]) < minRuns || len(gb[name]) < minRuns {
			return fmt.Errorf("workload %s: need %d runs on each side, have %d and %d", name, minRuns, len(ga[name]), len(gb[name]))
		}
	}

	fmt.Fprintf(w, "A = %s (%s)\nB = %s (%s)\n", fileA, ga[names[0]][0].Machine.Commit, fileB, gb[names[0]][0].Machine.Commit)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tB vs A\tbound\tverdict")
	for _, name := range names {
		for _, d := range bf.EndToEnd {
			va := metricValues(ga[name], d.Name)
			vb := metricValues(gb[name], d.Name)
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.4g..%.4g\t%.6g\t%.4g..%.4g\t%+.2f%%\t%.0f%%\t%s\n",
				name, d.Name, d.Unit, ma, q1a, q3a, mb, q1b, q3b, 100*ratio(mb-ma, ma), 100*d.Bound,
				verdict(va, vb, d.Bound, d.Better == "lower"))
		}
	}
	return tw.Flush()
}

// metricValues returns one end-to-end metric's value in each record.
func metricValues(recs []*record, name string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

// verdict judges side b against side a. The change is b's median against
// a's, as a share of a's. A change beyond the bound is "better" or "worse";
// within it, "same". When either side's spread (the distance between its
// quartiles, as a share of its median) is wider than the bound, the verdict
// is "unresolved" unless every run of one side beats every run of the other.
func verdict(a, b []float64, bound float64, lowerBetter bool) string {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	worse := ratio(mb-ma, ma)
	if !lowerBetter {
		worse = -worse
	}
	spread := math.Max(ratio(q3a-q1a, ma), ratio(q3b-q1b, mb))
	if spread > bound && !beatsAll(a, b, lowerBetter) && !beatsAll(b, a, lowerBetter) {
		return "unresolved"
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// beatsAll reports whether every value of x is better than every value of y.
func beatsAll(x, y []float64, lowerBetter bool) bool {
	for _, u := range x {
		for _, v := range y {
			if (lowerBetter && u >= v) || (!lowerBetter && u <= v) {
				return false
			}
		}
	}
	return true
}
