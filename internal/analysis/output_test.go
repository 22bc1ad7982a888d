package analysis

import (
	"fmt"
	"go/token"
	"strings"
	"testing"
	"time"
)

func diag(file string, line, col int, analyzer, msg string) Diagnostic {
	return Diagnostic{
		Analyzer: analyzer,
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Message:  msg,
	}
}

// TestSortDiagnostics pins the global output order — file, then line, then
// column, then analyzer, then message — on a deliberately scrambled input.
func TestSortDiagnostics(t *testing.T) {
	got := []Diagnostic{
		diag("b.go", 1, 1, "poolcheck", "m1"),
		diag("a.go", 9, 1, "unitsafe", "m2"),
		diag("a.go", 2, 5, "hotpath", "m3"),
		diag("a.go", 2, 5, "determinism", "m4"),
		diag("a.go", 2, 1, "hotpath", "m5"),
		diag("a.go", 2, 5, "determinism", "m0"),
	}
	sortDiagnostics(got)
	want := []string{
		"a.go:2:1 hotpath m5",
		"a.go:2:5 determinism m0",
		"a.go:2:5 determinism m4",
		"a.go:2:5 hotpath m3",
		"a.go:9:1 unitsafe m2",
		"b.go:1:1 poolcheck m1",
	}
	for i, d := range got {
		rendered := fmt.Sprintf("%s:%d:%d %s %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		if rendered != want[i] {
			t.Errorf("index %d: got %q, want %q", i, rendered, want[i])
		}
	}
}

// TestRunPackagesDeterministic runs the suite twice over the same fixture
// packages with fresh loaders and modules: the rendered findings must be
// byte-identical and globally sorted, independent of map iteration order
// inside the loader and call graph.
func TestRunPackagesDeterministic(t *testing.T) {
	paths := []string{
		"poolfix.example/internal/switchsim",
		"poolfix.example/internal/transport",
		"hotfix.example/internal/switchsim",
	}
	run := func(order []string) string {
		ld := NewLoader(TreeResolver("testdata/src"))
		diags, err := RunPackages(ld, order)
		if err != nil {
			t.Fatalf("RunPackages: %v", err)
		}
		var b strings.Builder
		Print(&b, diags)
		return b.String()
	}
	first := run(paths)
	if first == "" {
		t.Fatal("fixture run produced no findings; the determinism check is vacuous")
	}
	// Same request in reverse order must render identically: the global sort
	// erases request order.
	reversed := make([]string, len(paths))
	for i, p := range paths {
		reversed[len(paths)-1-i] = p
	}
	for i := 0; i < 3; i++ {
		if again := run(reversed); again != first {
			t.Fatalf("run %d differs from first run:\n--- first ---\n%s--- again ---\n%s", i, first, again)
		}
	}
	lines := strings.Split(strings.TrimSuffix(first, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Errorf("output not sorted at line %d:\n%s\n%s", i, lines[i-1], lines[i])
		}
	}
}

// TestPrintJSON pins the machine-readable shape: one JSON object per line
// with analyzer, position, and message fields.
func TestPrintJSON(t *testing.T) {
	var b strings.Builder
	diags := []Diagnostic{
		diag("x/a.go", 3, 7, "hotpath", `alloc in "hot" path`),
		diag("x/b.go", 1, 2, "determinism", "map range"),
	}
	if err := PrintJSON(&b, diags); err != nil {
		t.Fatal(err)
	}
	want := `{"analyzer":"hotpath","file":"x/a.go","line":3,"col":7,"message":"alloc in \"hot\" path"}
{"analyzer":"determinism","file":"x/b.go","line":1,"col":2,"message":"map range"}
`
	if b.String() != want {
		t.Errorf("PrintJSON output:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestRunModuleWallBudget guards simlint's own cost: the interprocedural
// layer (call graph, devirtualization, summaries) over the whole module must
// stay interactive. The budget is deliberately generous — an order of
// magnitude over the observed ~2s — so only a complexity regression
// (quadratic devirtualization, unmemoized summaries) trips it.
func TestRunModuleWallBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module lint timing in -short mode")
	}
	start := time.Now()
	if _, err := RunModule("."); err != nil {
		t.Fatalf("RunModule: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Fatalf("full-module simlint took %v, budget 90s — the interprocedural layer has a complexity regression", elapsed)
	}
}
