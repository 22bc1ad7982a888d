package harness

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// updateGolden refreshes testdata/golden.json from the current code:
//
//	go test ./internal/harness/ -run TestGoldenFigures -update-golden
//
// Review the diff before committing — the goldens are the regression anchor
// for the paper's headline metrics (see TESTING.md).
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json")

// goldenSeed pins the golden runs; simulations replay bit-for-bit by seed, so
// the tolerance below only absorbs float-summation drift across platforms.
const goldenSeed = 7

// goldenTolerance is the allowed relative error per numeric cell.
const goldenTolerance = 0.005

type goldenTable struct {
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

func goldenFromTable(t *Table) goldenTable {
	return goldenTable{Headers: t.Headers, Rows: t.Rows}
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "golden.json")
}

// cellsMatch compares two formatted cells: numerically within tolerance when
// both parse as numbers, byte-for-byte otherwise.
func cellsMatch(got, want string) bool {
	g, gerr := strconv.ParseFloat(got, 64)
	w, werr := strconv.ParseFloat(want, 64)
	if gerr != nil || werr != nil {
		return got == want
	}
	if g == w {
		return true
	}
	denom := math.Max(math.Abs(g), math.Abs(w))
	return math.Abs(g-w)/denom <= goldenTolerance
}

func TestGoldenFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale golden run skipped in -short mode")
	}
	// Every table of figures 3 and 4, keyed by the grid it renders.
	got := map[string]goldenTable{}
	for _, name := range []string{"3", "4"} {
		f, err := FigureByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grids := f.Grids(BenchScale, goldenSeed)
		tables, err := f.Tables(BenchScale, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != len(grids) {
			t.Fatalf("figure %s: %d tables for %d grids", name, len(tables), len(grids))
		}
		for i, tbl := range tables {
			got[grids[i].Name] = goldenFromTable(tbl)
		}
	}

	path := goldenPath(t)
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden refreshed: %s", path)
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenTable
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}

	for name, wt := range want {
		gt, ok := got[name]
		if !ok {
			t.Errorf("%s: golden table no longer produced", name)
			continue
		}
		if len(gt.Rows) != len(wt.Rows) {
			t.Errorf("%s: %d rows, golden has %d", name, len(gt.Rows), len(wt.Rows))
			continue
		}
		for i := range wt.Rows {
			if len(gt.Rows[i]) != len(wt.Rows[i]) {
				t.Errorf("%s row %d: %d cells, golden has %d", name, i, len(gt.Rows[i]), len(wt.Rows[i]))
				continue
			}
			for j := range wt.Rows[i] {
				if !cellsMatch(gt.Rows[i][j], wt.Rows[i][j]) {
					t.Errorf("%s row %d (%s) col %d (%s): got %s, golden %s",
						name, i, gt.Rows[i][0], j, header(gt.Headers, j), gt.Rows[i][j], wt.Rows[i][j])
				}
			}
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: missing from golden file (refresh with -update-golden)", name)
		}
	}
}

func header(hs []string, j int) string {
	if j < len(hs) {
		return hs[j]
	}
	return "?"
}
