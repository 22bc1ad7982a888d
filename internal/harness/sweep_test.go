package harness

import (
	"testing"

	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/transport"
)

func mustRunSpecsAveraged(t *testing.T, specs []spec.Spec, seeds int) []Metrics {
	t.Helper()
	out, err := RunSpecsAveraged(specs, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(specs) {
		t.Fatalf("%d results for %d specs", len(out), len(specs))
	}
	return out
}

func TestRunSpecsAveragedShape(t *testing.T) {
	out := mustRunSpecsAveraged(t, []spec.Spec{poissonSpec("ecmp", 20, 5), poissonSpec("ecmp", 40, 5)}, 2)
	for i, m := range out {
		if m.Seeds != 2 {
			t.Fatalf("Seeds = %d", m.Seeds)
		}
		if m.Completed <= 0 || m.AFCT <= 0 {
			t.Fatalf("spec %d: empty metrics %+v", i, m)
		}
		// Percentiles must be ordered.
		if !(m.P25 <= m.P50 && m.P50 <= m.P75 && m.P75 <= m.P90 && m.P90 <= m.P99) {
			t.Fatalf("spec %d: percentiles not monotone: %+v", i, m)
		}
	}
	// More load, more flows.
	if out[1].Completed <= out[0].Completed {
		t.Fatalf("flow counts not increasing with load: %v vs %v", out[0].Completed, out[1].Completed)
	}
}

func TestRunSpecsAveragedSingleSeedMatchesRun(t *testing.T) {
	sp := poissonSpec("ecmp", 30, 5)
	direct := Run(MustCompile(sp))
	avg := mustRunSpecsAveraged(t, []spec.Spec{sp}, 1)[0]
	if avg.AFCT != direct.Report.AvgFCTms() {
		t.Fatalf("single-seed average %v != direct %v", avg.AFCT, direct.Report.AvgFCTms())
	}
	if avg.Completed != float64(direct.Report.Completed) {
		t.Fatal("completed mismatch")
	}
}

func TestRunSpecsAveragedClampsSeeds(t *testing.T) {
	out := mustRunSpecsAveraged(t, []spec.Spec{poissonSpec("ecmp", 20, 5)}, 0)
	if out[0].Seeds != 1 {
		t.Fatalf("seeds not clamped: %d", out[0].Seeds)
	}
}

func TestRunSpecsAveragedMotivation(t *testing.T) {
	sp := testScale.MotivSpec(3, 2, 2)
	sp.Scheme = "presto"
	out := mustRunSpecsAveraged(t, []spec.Spec{sp}, 2)
	if out[0].Completed <= 0 {
		t.Fatalf("no background flows completed: %+v", out[0])
	}
	if out[0].PauseRate <= 0 {
		t.Fatalf("motivation scenario produced no pauses: %+v", out[0])
	}
}

func TestScaleSeedsHelper(t *testing.T) {
	s := Scale{}
	if s.seeds() != 1 {
		t.Fatal("zero Seeds should clamp to 1")
	}
	s.Seeds = 3
	if s.seeds() != 3 {
		t.Fatal("explicit Seeds ignored")
	}
}

// TestIncastMetricsGroupsRoundsByStart hands incastMetrics a run of two
// incast rounds: flows sharing a StartAt form one round, and only a round
// whose flows all finished counts as finished, timed from its start to its
// last flow's finish.
func TestIncastMetricsGroupsRoundsByStart(t *testing.T) {
	ms := sim.Millisecond
	flows := []*transport.Flow{
		{StartAt: 2 * ms, FinishAt: 4 * ms, Done: true},
		{StartAt: 2 * ms, FinishAt: 5 * ms, Done: true},
		{StartAt: 10 * ms}, // never finished
		{StartAt: 10 * ms, FinishAt: 11 * ms, Done: true},
	}
	r := &Result{Report: metrics.BuildFlowReport(flows), Network: &topo.Network{Flows: flows}}
	m := incastMetrics(r)
	if m.Initiations != 2 || m.Finished != 1 {
		t.Fatalf("initiations/finished = %d/%d, want 2/1", m.Initiations, m.Finished)
	}
	if m.ICTms != 3 {
		t.Fatalf("ICTms = %v, want 3 (first round: start 2ms, last finish 5ms)", m.ICTms)
	}
}
