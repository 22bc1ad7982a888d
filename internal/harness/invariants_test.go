package harness

import (
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
)

func poissonCfg(scheme string, seed uint64) RunConfig {
	return MustCompile(poissonSpec(scheme, 40, seed))
}

func TestNetworkNotRetainedByDefault(t *testing.T) {
	res := Run(poissonCfg("ecmp", 1))
	if res.Network != nil {
		t.Fatal("Result.Network retained without KeepNetwork")
	}
	cfg := poissonCfg("ecmp", 1)
	cfg.KeepNetwork = true
	if kept := Run(cfg); kept.Network == nil {
		t.Fatal("KeepNetwork did not retain the network")
	}
}

func TestIdenticalSeedsIdenticalRuns(t *testing.T) {
	// The determinism contract behind every figure: the same config and seed
	// must replay bit-for-bit, for every scheme, with and without RLB.
	schemes := append([]string{}, FourSchemes...)
	schemes = append(schemes, "ecmp", "conga")
	for _, base := range FourSchemes {
		schemes = append(schemes, base+"+rlb")
	}
	for _, scheme := range schemes {
		scheme := scheme
		t.Run(scheme, func(t *testing.T) {
			t.Parallel()
			mk := func() string {
				cfg := poissonCfg(scheme, 17)
				cfg.KeepNetwork = true
				return Fingerprint(Run(cfg))
			}
			a, b := mk(), mk()
			if a != b {
				t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

func TestRunAllIndependentOfWorkerCount(t *testing.T) {
	mkCfgs := func() []RunConfig {
		var cfgs []RunConfig
		for i, scheme := range []string{"ecmp", "drill", "drill+rlb", "presto"} {
			cfgs = append(cfgs, poissonCfg(scheme, uint64(31+i)))
		}
		return cfgs
	}
	run := func(workers int) []*Result {
		cfgs := mkCfgs()
		out := make([]*Result, len(cfgs))
		Parallel(len(cfgs), workers, func(i int) { out[i] = Run(cfgs[i]) })
		return out
	}
	serial, wide := run(1), run(8)
	if len(serial) != len(wide) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(wide))
	}
	for i := range serial {
		a, b := Fingerprint(serial[i]), Fingerprint(wide[i])
		if a != b {
			t.Fatalf("config %d differs across worker counts:\n%s\nvs\n%s", i, a, b)
		}
	}
}

func TestStrictInvariantsCleanAcrossSchemes(t *testing.T) {
	// The strict tier (per-mutation pool audits, per-flow PSN tracking) must
	// stay silent on healthy runs of every scheme. `make race` runs this under
	// the race detector, which also exercises the harness's parallelism.
	var cfgs []RunConfig
	schemes := append([]string{"ecmp", "conga"}, FourSchemes...)
	schemes = append(schemes, "drill+rlb", "presto+rlb")
	for _, scheme := range schemes {
		cfg := poissonCfg(scheme, 41)
		cfg.StrictInvariants = true
		cfgs = append(cfgs, cfg)
	}
	for i, res := range RunAll(cfgs) {
		if res.InvariantChecks == 0 {
			t.Errorf("%s: strict checker ran zero assertions", schemes[i])
		}
		if len(res.Violations) != 0 {
			t.Errorf("%s: %d violations, e.g. %v", schemes[i], len(res.Violations), res.Violations[0])
		}
	}
}

func TestViolationsCarryRunContext(t *testing.T) {
	// Every violation must be reproducible from the log alone: the recorded
	// message carries the run's seed and scenario parameters. A permanent
	// ECMP blackhole reliably produces violations to inspect.
	s := poissonSpec("ecmp", 40, 21)
	s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 0, DownAtUs: 250}}
	res := Run(MustCompile(s))
	if len(res.Violations) == 0 {
		t.Fatal("blackhole scenario recorded no violations")
	}
	for _, v := range res.Violations {
		if !strings.Contains(v.Ctx, "sim-seed=21") || !strings.Contains(v.Ctx, "fabric=2x2/3") {
			t.Fatalf("violation context missing run identity: %q", v.String())
		}
		if !strings.Contains(v.String(), v.Ctx) {
			t.Fatalf("String() omits the context: %q", v.String())
		}
	}
	// An explicit Context replaces the compiled spec.Params label verbatim.
	cfg := MustCompile(s)
	cfg.Context = "scenario gen-seed=99 custom"
	res = Run(cfg)
	if len(res.Violations) == 0 {
		t.Fatal("blackhole scenario recorded no violations with explicit context")
	}
	if got := res.Violations[0].Ctx; got != "scenario gen-seed=99 custom" {
		t.Fatalf("explicit context not used: %q", got)
	}
}

func TestMotivationStrictAndUnretained(t *testing.T) {
	// The motivation scenario (PFC storms, recirculation, spraying) is the
	// hardest path for the checker; it must stay clean in strict mode, and
	// the sweep's metric extraction must not leak the retained network.
	sp := testScale.MotivSpec(3, 2, 2)
	sp.Scheme = "drill"
	sp.Strict = true
	res := Run(MustCompile(sp))
	specMetrics(sp, res)
	if res.Network != nil {
		t.Fatal("specMetrics leaked Result.Network")
	}
	if res.InvariantChecks == 0 {
		t.Fatal("checker not wired through the motivation path")
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
}
