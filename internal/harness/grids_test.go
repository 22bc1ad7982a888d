package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
)

// updateGrids refreshes testdata/grids_golden.json from the current grid
// definitions:
//
//	go test ./internal/harness/ -run TestFigureGridsGolden -update-grids
//
// Review the diff before committing — every changed line is a deliberate
// change to which experiments a paper figure runs.
var updateGrids = flag.Bool("update-grids", false, "rewrite testdata/grids_golden.json")

// allFigureGrids collects every figure's grids at the default scale, seed 1 —
// the exact inputs `cmd/figures` runs with no flags.
func allFigureGrids() []spec.Grid {
	var out []spec.Grid
	for _, f := range Figures {
		out = append(out, f.Grids(DefaultScale, 1)...)
	}
	return out
}

// TestFigureGridsGolden pins the declarative sweep grids behind every paper
// figure byte-for-byte. The figure-output golden (golden_test.go) catches
// changes in what the simulations produce; this one catches changes in which
// simulations the figures ask for, and fails with a reviewable JSON diff
// instead of mysteriously shifted metrics.
func TestFigureGridsGolden(t *testing.T) {
	got, err := spec.EncodeGrids(allFigureGrids())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "grids_golden.json")
	if *updateGrids {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no grids golden file (run with -update-grids to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("figure grids drifted from %s; if intentional, refresh with -update-grids and review the diff", path)
	}
	// The golden file must itself round-trip through the strict decoder.
	decoded, err := spec.DecodeGrids(want)
	if err != nil {
		t.Fatalf("golden grids no longer decode: %v", err)
	}
	reencoded, err := spec.EncodeGrids(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, reencoded) {
		t.Fatal("golden grids round trip is not byte-stable")
	}
}

// TestFigureGridsExpand asserts every figure grid expands without error and
// every cell compiles — no figure can reach the sweep engine with an invalid
// axis field or a cell the compiler rejects.
func TestFigureGridsExpand(t *testing.T) {
	for _, g := range allFigureGrids() {
		cells, err := g.Cells()
		if err != nil {
			t.Errorf("grid %q: %v", g.Name, err)
			continue
		}
		if len(cells) != g.Size() {
			t.Errorf("grid %q: %d cells, Size says %d", g.Name, len(cells), g.Size())
		}
		for i, c := range cells {
			if _, err := Compile(c); err != nil {
				t.Errorf("grid %q cell %d does not compile: %v", g.Name, i, err)
			}
		}
	}
}

func TestFigureGridsUnknownFigure(t *testing.T) {
	_, err := FigureByName("2")
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	if !strings.Contains(err.Error(), "3, 4, 6, 7, 8, 9, 10, irn") {
		t.Fatalf("error does not list the valid names: %v", err)
	}
	if f, err := FigureByName("irn"); err != nil || f.Name != "irn" {
		t.Fatalf("FigureByName(irn) = %q, %v", f.Name, err)
	}
}
