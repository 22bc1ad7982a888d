package harness

import (
	"strings"
	"testing"
)

// TestFiguresBuild is the figure smoke test at the tiny test scale: every
// registered figure runs once, every table row is as wide as its headers,
// and each figure's subtest checks its own table shapes.
func TestFiguresBuild(t *testing.T) {
	checks := map[string]func(t *testing.T, tables []*Table){
		"3": func(t *testing.T, tables []*Table) {
			tbl := tables[0]
			if len(tbl.Rows) != 8 { // 4 schemes x pfc on/off
				t.Fatalf("rows = %d", len(tbl.Rows))
			}
			out := tbl.String()
			for _, scheme := range FourSchemes {
				if !strings.Contains(out, scheme) {
					t.Fatalf("missing scheme %s:\n%s", scheme, out)
				}
			}
			// PFC-off rows must report a zero pause rate.
			for _, row := range tbl.Rows {
				if row[1] == "off" && row[2] != "0" {
					t.Fatalf("pause rate nonzero without PFC: %v", row)
				}
			}
		},
		"4": func(t *testing.T, tables []*Table) {
			a, b := tables[0], tables[1]
			if len(a.Rows) != 4 || len(b.Rows) != 4 {
				t.Fatalf("rows = %d/%d", len(a.Rows), len(b.Rows))
			}
			if len(b.Headers) != 7 { // scheme + 6 burst counts
				t.Fatalf("fig4b headers = %v", b.Headers)
			}
		},
		"6": func(t *testing.T, tables []*Table) {
			tbl := tables[0]
			if len(tbl.Rows) != 8 { // 4 schemes x {vanilla, +rlb}
				t.Fatalf("rows = %d", len(tbl.Rows))
			}
			if !strings.Contains(tbl.String(), "drill+rlb") {
				t.Fatal("rlb rows missing")
			}
		},
		"8": func(t *testing.T, tables []*Table) {
			for _, tbl := range tables {
				if len(tbl.Rows) != 8 { // the eight schemes
					t.Fatalf("rows = %d", len(tbl.Rows))
				}
			}
		},
		"9": func(t *testing.T, tables []*Table) {
			if len(tables) != 2 {
				t.Fatalf("tables = %d", len(tables))
			}
			for _, tbl := range tables {
				if len(tbl.Rows) != 4 {
					t.Fatalf("rows = %d", len(tbl.Rows))
				}
				if !strings.Contains(tbl.Rows[0][0], "w/o recir.") {
					t.Fatalf("ablation label missing: %v", tbl.Rows[0])
				}
			}
		},
		"10": func(t *testing.T, tables []*Table) {
			tbl := tables[0]
			if len(tbl.Rows) != 2 || len(tbl.Headers) != 8 {
				t.Fatalf("shape = %dx%d", len(tbl.Rows), len(tbl.Headers))
			}
			// Normalized values: every row's minimum must be 1.
			for _, row := range tbl.Rows {
				found := false
				for _, c := range row[1:] {
					if c == "1" {
						found = true
					}
				}
				if !found {
					t.Fatalf("row not normalized to 1: %v", row)
				}
			}
		},
		"irn": func(t *testing.T, tables []*Table) {
			tbl := tables[0]
			if len(tbl.Rows) != 6 { // 2 bases x 3 modes
				t.Fatalf("rows = %d", len(tbl.Rows))
			}
			// The lossy rows must show zero pause rate.
			for _, row := range tbl.Rows {
				if row[1] == "lossy+irn" && row[5] != "0" {
					t.Fatalf("IRN row has pauses: %v", row)
				}
			}
		},
	}
	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			tables, err := f.Tables(testScale, 3)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tbl := range tables {
				for i, row := range tbl.Rows {
					if len(row) != len(tbl.Headers) {
						t.Fatalf("%s row %d: %d cells for %d headers", tbl.Title, i, len(row), len(tbl.Headers))
					}
				}
			}
			if check := checks[f.Name]; check != nil {
				check(t, tables)
			}
		})
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "b,c"}}
	tbl.AddRow("x\"y", 1.5)
	tbl.AddNote("n")
	csv := tbl.CSV()
	for _, want := range []string{"# T\n", `a,"b,c"`, `"x""y",1.5`, "# n"} {
		if !strings.Contains(csv, want) {
			t.Fatalf("CSV missing %q:\n%s", want, csv)
		}
	}
}

func TestCongaSchemeRuns(t *testing.T) {
	cfg := MustCompile(poissonSpec("conga+rlb", 30, 1))
	if cfg.Topo.RLB == nil {
		t.Fatal("conga+rlb compiled without RLB")
	}
	res := Run(cfg)
	if res.Report.Completed == 0 {
		t.Fatal("no flows completed under conga+rlb")
	}
	if res.Drops != 0 {
		t.Fatalf("%d drops", res.Drops)
	}
}
