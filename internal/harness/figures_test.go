package harness

import (
	"strings"
	"testing"
)

// Figure-builder smoke tests at the tiny test scale: each figure's code path
// must produce a well-formed table with the expected rows.

func TestFig3Builds(t *testing.T) {
	tbl := Fig3(testScale, 3)
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
}

func TestFig4Builds(t *testing.T) {
	a := Fig4Paths(testScale, 3)
	b := Fig4Bursts(testScale, 3)
	if len(a.Rows) != 4 || len(b.Rows) != 4 {
		t.Fatalf("rows = %d/%d", len(a.Rows), len(b.Rows))
	}
	if len(b.Headers) != 7 { // scheme + 6 burst counts
		t.Fatalf("fig4b headers = %v", b.Headers)
	}
}

func TestFig6Builds(t *testing.T) {
	tbl := Fig6(testScale, 3)
	if len(tbl.Rows) != 8 { // 4 schemes x {vanilla, +rlb}
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "drill+rlb") {
		t.Fatal("rlb rows missing")
	}
}

func TestFig9Builds(t *testing.T) {
	tables := Fig9(testScale, 3)
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
}

func TestFig10Builds(t *testing.T) {
	tbl := Fig10Qth(testScale, 3)
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
}

func TestExtIRNBuilds(t *testing.T) {
	tbl := ExtIRN(testScale, 3)
	if len(tbl.Rows) != 6 { // 2 bases x 3 modes
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// The lossy rows must show zero pause rate.
	for _, row := range tbl.Rows {
		if row[1] == "lossy+irn" && row[5] != "0" {
			t.Fatalf("IRN row has pauses: %v", row)
		}
	}
}

func TestFig8Builds(t *testing.T) {
	tbl := Fig8Degree(testScale, 3)
	if len(tbl.Rows) != len(fig8Schemes) {
		t.Fatalf("rows = %d", len(tbl.Rows))
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
