package harness

import (
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
)

// testScale is a deliberately tiny fabric so unit tests stay fast.
var testScale = Scale{
	Name: "test",
	Base: spec.Spec{
		Leaves: 2, Spines: 2, HostsPerLeaf: 3, LinkGbps: 10,
		MaxFlowKB: 500, DurationUs: 1000, DrainUs: 4000,
	},
	MotivSpines: 4, MotivHosts: 4,
}

// poissonSpec is a testScale fabric run of one scheme under Web Server
// traffic at the given load.
func poissonSpec(scheme string, loadPct int, seed uint64) spec.Spec {
	s := testScale.Spec(seed)
	s.Scheme = scheme
	s.Workload = "webserver"
	s.LoadPct = loadPct
	return s
}

func TestRunPoissonScenario(t *testing.T) {
	res := Run(MustCompile(poissonSpec("ecmp", 40, 1)))
	if res.Report.Flows == 0 {
		t.Fatal("no flows generated")
	}
	if res.Report.Completed == 0 {
		t.Fatal("no flows completed")
	}
	if res.Drops != 0 {
		t.Fatalf("%d drops in lossless run", res.Drops)
	}
	if res.SimTime != 5*sim.Millisecond {
		t.Fatalf("SimTime = %v", res.SimTime)
	}
}

func TestRunAllOrderAndParallel(t *testing.T) {
	var cfgs []RunConfig
	for _, l := range []int{10, 20, 30, 40} {
		cfgs = append(cfgs, MustCompile(poissonSpec("ecmp", l, 5)))
	}
	results := RunAll(cfgs)
	if len(results) != 4 {
		t.Fatalf("%d results", len(results))
	}
	// Higher load must generate more flows (same seed, same duration).
	for i := 1; i < len(results); i++ {
		if results[i].Report.Flows <= results[i-1].Report.Flows {
			t.Fatalf("flow counts not increasing with load: %d then %d",
				results[i-1].Report.Flows, results[i].Report.Flows)
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"bench", "default", "paper"} {
		if s, ok := ScaleByName(name); !ok || s.Base.Leaves == 0 {
			t.Errorf("ScaleByName(%s) failed", name)
		}
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Error("unknown scale accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("x", 1.23456)
	tbl.AddRow("longer", 2)
	tbl.AddNote("hello %d", 7)
	out := tbl.String()
	for _, want := range []string{"T\n", "a", "bb", "1.235", "longer", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestSweepInts(t *testing.T) {
	got := sweepInts(1, 8, 6)
	if got[0] != 1 || got[len(got)-1] != 8 {
		t.Fatalf("sweep endpoints wrong: %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("sweep not increasing: %v", got)
		}
	}
	if one := sweepInts(5, 5, 4); len(one) != 1 || one[0] != 5 {
		t.Fatalf("degenerate sweep: %v", one)
	}
}

// motivRun runs a motivation-kind spec at testScale through the spec path
// and returns the raw result alongside the victim-flow metrics.
func motivRun(scheme string, pfcOff bool, seed uint64, spray, bursts int) (*Result, Metrics) {
	sp := testScale.MotivSpec(seed, spray, bursts)
	sp.Scheme = scheme
	sp.PFCOff = pfcOff
	res := Run(MustCompile(sp))
	return res, motivationMetrics(sp, res)
}

func TestMotivationScenarioRuns(t *testing.T) {
	res, bg := motivRun("presto", false, 3, 2, 2)
	if bg.Completed == 0 {
		t.Fatal("no background flows completed")
	}
	if float64(res.Report.Completed) <= bg.Completed {
		t.Fatal("burst/congested flows missing from aggregate")
	}
	if res.Pauses == 0 {
		t.Fatal("motivation scenario did not trigger PFC")
	}
}

func TestMotivationPFCOffHasNoPauses(t *testing.T) {
	res, _ := motivRun("drill", true, 3, 2, 2)
	if res.Pauses != 0 {
		t.Fatalf("%d pauses with PFC disabled", res.Pauses)
	}
}

func TestRLBReducesReorderingUnderPFC(t *testing.T) {
	// The paper's headline claim, at test scale: with PFC on, adding RLB to
	// a PFC-oblivious per-packet scheme (DRILL) must reduce the
	// out-of-order ratio of the victim background flows.
	_, base := motivRun("drill", false, 11, 4, 3)
	withRLB, rlb := motivRun("drill+rlb", false, 11, 4, 3)
	if base.OOOPct == 0 {
		t.Skip("scenario too gentle at test scale to reorder packets")
	}
	if rlb.OOOPct >= base.OOOPct {
		t.Fatalf("RLB did not reduce reordering: %.4f%% -> %.4f%% (warnings=%d recircs=%d)",
			base.OOOPct, rlb.OOOPct, withRLB.Agents.WarningsRcvd, withRLB.Recircs)
	}
}

// TestNormalizedRow pins the Fig. 10 normalization: every AFCT is divided
// by the smallest nonzero one, and a zero AFCT (no completed flows) stays 0.
func TestNormalizedRow(t *testing.T) {
	var ms []Metrics
	for _, afct := range []float64{4, 2, 0, 8} {
		ms = append(ms, Metrics{AFCT: afct})
	}
	row := normalizedRow("x", ms)
	want := []interface{}{"x", 2.0, 1.0, 0.0, 4.0}
	if len(row) != len(want) {
		t.Fatalf("row = %v, want %v", row, want)
	}
	for i := range want {
		if row[i] != want[i] {
			t.Fatalf("row = %v, want %v", row, want)
		}
	}
	if row := normalizedRow("x", nil); len(row) != 1 {
		t.Fatalf("empty sweep row = %v", row)
	}
}
