package analysis_test

import (
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/analysis"
)

// TestTreeIsLintClean runs the full simlint suite over the real module and
// requires zero unannotated findings. This is the compile-time regression
// gate the runtime invariants cannot provide: introduce a time.Now, a
// math/rand import, a map range, a dropped pooled packet, a *sim.Timer, or a
// raw literal added to a sim.Time anywhere in a simulation package, and this
// test (and therefore `make test`) fails.
func TestTreeIsLintClean(t *testing.T) {
	diags, err := analysis.RunModule(".")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(diags) == 0 {
		return
	}
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	t.Fatalf("simlint found %d unannotated finding(s) — fix them or add a justified //simlint:allow:%s",
		len(diags), b.String())
}

// TestSuiteNamesAreStable pins the analyzer names: annotations in the tree
// reference them, so renaming one silently orphans every //simlint:allow.
func TestSuiteNamesAreStable(t *testing.T) {
	want := []string{"determinism", "poolcheck", "timercheck", "unitsafe", "hotpath"}
	suite := analysis.Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("suite[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run function", a.Name)
		}
	}
}
