package analysis_test

import (
	"testing"

	"github.com/rlb-project/rlb/internal/analysis"
	"github.com/rlb-project/rlb/internal/analysis/analysistest"
)

// Each analyzer is exercised over a fixture tree containing at least one true
// positive, at least one sanctioned (non-finding) idiom, and at least one
// //simlint:allow-suppressed case (see testdata/src/...).

func TestDeterminismFixture(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "detfix.example/internal/switchsim", analysis.Determinism)
}

func TestDeterminismHarnessExemption(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "detfix.example/internal/harness", analysis.Determinism)
}

// TestDeterminismScenarioNotExempt pins the exemption to internal/harness:
// the scenario fuzzer fans out through harness.Parallel, so a go statement of
// its own is a finding.
func TestDeterminismScenarioNotExempt(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "detfix.example/internal/scenario", analysis.Determinism)
}

func TestPoolcheckFixture(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "poolfix.example/internal/switchsim", analysis.Poolcheck)
}

func TestPoolcheckExemptInsideFabric(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "poolfix.example/internal/fabric", analysis.Poolcheck)
}

// TestPoolcheckCrossPackage seeds leaks that are only visible
// interprocedurally: the callers live in poolfix.example/internal/transport
// and the ownership facts (Stash owns, Inspect borrows) are inferred from
// helper bodies in poolfix.example/internal/core — there is no whitelist for
// the summaries to fall back on.
func TestPoolcheckCrossPackage(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.RunMulti(t, src, []string{
		"poolfix.example/internal/transport",
		"poolfix.example/internal/core",
	}, analysis.Poolcheck)
}

// TestHotpathFixture proves the hotpath analyzer can fail: every seeded
// allocation sits in a function reachable from the fixture Handler's OnEvent
// (some only through interface devirtualization), while identical
// allocations in cold constructors stay silent.
func TestHotpathFixture(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "hotfix.example/internal/switchsim", analysis.Hotpath)
}

func TestTimercheckFixture(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "timerfix.example/internal/transport", analysis.Timercheck)
}

func TestTimercheckExemptInsideSim(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "timerfix.example/internal/sim", analysis.Timercheck)
}

func TestUnitsafeFixture(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "unitfix.example/internal/transport", analysis.Unitsafe)
}

func TestUnitsafeExemptInsideUnits(t *testing.T) {
	src := analysistest.Fixture(".")
	analysistest.Run(t, src, "unitfix.example/internal/units", analysis.Unitsafe)
}
