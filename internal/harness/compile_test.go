package harness

import (
	"reflect"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
	"github.com/rlb-project/rlb/internal/workload"
)

// tinySpec is a fabric spec small enough to simulate inside a unit test.
func tinySpec() spec.Spec {
	return spec.Spec{
		SimSeed: 5, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 10,
		Scheme: "drill+rlb", Workload: "websearch", LoadPct: 30,
		MaxFlowKB: 100, DurationUs: 300, DrainUs: 4000,
	}
}

// TestCompileThresholdsMatchScaleMath pins the compiler's unit conversion:
// the 40 Gb/s PFC/ECN thresholds rescaled to each paper-relevant link rate
// (PFC at half the rate ratio, ECN at the ratio, unchanged at 40 G), the link
// timing, and the traffic window and flow cap. These are the values every
// figure's fabric pauses at.
func TestCompileThresholdsMatchScaleMath(t *testing.T) {
	for _, c := range []struct {
		gbps                int
		pfc, ecnMin, ecnMax int
	}{
		{10, 32000, 10000, 40000},
		{25, 80000, 25000, 100000},
		{40, 256000, 40000, 160000},
	} {
		s := DefaultScale.Spec(1)
		s.LinkGbps = c.gbps
		s.Scheme = "ecmp"
		s.Workload = "websearch"
		s.LoadPct = 50
		cfg, err := Compile(s)
		if err != nil {
			t.Fatalf("%dG: %v", c.gbps, err)
		}
		sw := cfg.Topo.Switch
		if sw.PFCThreshold != c.pfc || sw.ECNKmin != c.ecnMin || sw.ECNKmax != c.ecnMax {
			t.Errorf("%dG: PFC %d ECN (%d,%d), want PFC %d ECN (%d,%d)", c.gbps,
				sw.PFCThreshold, sw.ECNKmin, sw.ECNKmax, c.pfc, c.ecnMin, c.ecnMax)
		}
		if want := units.Bandwidth(c.gbps) * units.Gbps; cfg.Topo.LinkRate != want || cfg.Topo.LinkDelay != 2*sim.Microsecond {
			t.Errorf("%dG: link %v/%v, want %v/2us", c.gbps, cfg.Topo.LinkRate, cfg.Topo.LinkDelay, want)
		}
		if cfg.Duration != 5*sim.Millisecond || cfg.Drain != 15*sim.Millisecond || cfg.MaxFlowBytes != 5*1000*1000 {
			t.Errorf("%dG: window %v+%v cap %d, want 5ms+15ms cap 5000000", c.gbps,
				cfg.Duration, cfg.Drain, cfg.MaxFlowBytes)
		}
	}
}

// TestCompileAsymFabric pins the asymmetry knob: asymPct 20 downgrades a 0.2
// fraction of leaf-spine links to a quarter of the link rate, and asymPct 0
// leaves the fabric symmetric.
func TestCompileAsymFabric(t *testing.T) {
	s := tinySpec()
	s.AsymPct = 20
	p := MustCompile(s).Topo
	if p.AsymFraction != 0.2 || p.AsymRate != p.LinkRate/4 {
		t.Fatalf("asym %v at %v, want 0.2 at %v", p.AsymFraction, p.AsymRate, p.LinkRate/4)
	}
	if p := MustCompile(tinySpec()).Topo; p.AsymFraction != 0 {
		t.Fatalf("asym fraction %v on a symmetric spec", p.AsymFraction)
	}
}

// TestCompileContextIsSpecParams pins the satellite contract that the
// compiler is the single composer of RunConfig.Context.
func TestCompileContextIsSpecParams(t *testing.T) {
	s := tinySpec()
	s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 100, UpAtUs: 200}}
	cfg := MustCompile(s)
	if cfg.Context != s.Params() {
		t.Fatalf("Context drifted from spec.Params:\n%q\nvs\n%q", cfg.Context, s.Params())
	}
	m := DefaultScale.MotivSpec(1, 2, 2)
	m.Scheme = "presto"
	mcfg := MustCompile(m)
	if mcfg.Context != m.Params() {
		t.Fatalf("motivation Context drifted:\n%q\nvs\n%q", mcfg.Context, m.Params())
	}
}

// TestCompileSchemeRegistryAgreement pins the advertised names to what
// Compile accepts: every spec.SchemeNames entry compiles, deploying RLB
// exactly when it carries the "+rlb" suffix, every workload.Names entry
// compiles to that distribution, and an unknown scheme's or workload's error
// lists the valid names.
func TestCompileSchemeRegistryAgreement(t *testing.T) {
	for _, name := range spec.SchemeNames() {
		s := tinySpec()
		s.Scheme = name
		cfg, err := Compile(s)
		if err != nil {
			t.Errorf("advertised scheme %q does not compile: %v", name, err)
			continue
		}
		withRLB := strings.HasSuffix(name, spec.RLBSuffix)
		if cfg.Topo.LB == nil || (cfg.Topo.RLB != nil) != withRLB {
			t.Errorf("%s: LB set %v, RLB deployed %v; want RLB %v",
				name, cfg.Topo.LB != nil, cfg.Topo.RLB != nil, withRLB)
		}
	}
	for _, bogus := range []string{"bogus", "bogus+rlb"} {
		s := tinySpec()
		s.Scheme = bogus
		_, err := Compile(s)
		if err == nil {
			t.Fatalf("unknown scheme %q compiled", bogus)
		}
		for _, name := range spec.SchemeNames() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("unknown-scheme error does not list %q: %v", name, err)
			}
		}
	}

	for _, name := range workload.Names() {
		s := tinySpec()
		s.Workload = name
		cfg, err := Compile(s)
		if err != nil {
			t.Errorf("advertised workload %q does not compile: %v", name, err)
			continue
		}
		if cfg.Workload == nil || cfg.Workload.Name != name {
			t.Errorf("workload %q compiled to %v", name, cfg.Workload)
		}
	}
	s := tinySpec()
	s.Workload = "bogus"
	_, err := Compile(s)
	if err == nil {
		t.Fatal("unknown workload compiled")
	}
	for _, name := range workload.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-workload error does not list %q: %v", name, err)
		}
	}
}

// TestSchemeByName pins scheme lookup by name: each base load balancer
// compiles without RLB, its "+rlb" variant deploys RLB, and unknown names
// (with or without the suffix) are rejected.
func TestSchemeByName(t *testing.T) {
	compile := func(name string) (RunConfig, error) {
		s := tinySpec()
		s.Scheme = name
		return Compile(s)
	}
	for _, name := range []string{"ecmp", "presto", "letflow", "hermes", "drill"} {
		if cfg, err := compile(name); err != nil || cfg.Topo.RLB != nil {
			t.Errorf("%s: %v rlb=%v", name, err, cfg.Topo.RLB)
		}
		if cfg, err := compile(name + spec.RLBSuffix); err != nil || cfg.Topo.RLB == nil {
			t.Errorf("%s+rlb: %v rlb=%v", name, err, cfg.Topo.RLB)
		}
	}
	for _, bogus := range []string{"bogus", "bogus+rlb"} {
		if _, err := compile(bogus); err == nil {
			t.Errorf("%s scheme accepted", bogus)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(*spec.Spec)
		errHas string
	}{
		{"zero rate", func(s *spec.Spec) { s.LinkGbps = 0 }, "linkGbps"},
		{"zero duration", func(s *spec.Spec) { s.DurationUs = 0 }, "durationUs"},
		{"negative load", func(s *spec.Spec) { s.LoadPct = -1 }, "negative"},
		{"load over 100", func(s *spec.Spec) { s.LoadPct = 150 }, "loadPct 150: valid range is 0..100"},
		{"no leaves", func(s *spec.Spec) { s.Leaves = 0 }, "fabric"},
		{"no spines", func(s *spec.Spec) { s.Spines = 0 }, "valid range is 1..64"},
		{"too many spines", func(s *spec.Spec) { s.Spines = 65 }, "valid range is 1..64"},
		{"asymPct over 100", func(s *spec.Spec) { s.AsymPct = 150 }, "asymPct 150: valid range is 0..100"},
		{"incast client off fabric", func(s *spec.Spec) {
			s.IncastDegree, s.IncastKB, s.IncastClient = 2, 40, 99
		}, "incastClient 99: valid range is 0..3"},
		{"negative incast client", func(s *spec.Spec) {
			s.IncastDegree, s.IncastKB, s.IncastClient = 2, 40, -1
		}, "incastClient -1: valid range is 0..3"},
		{"incast in the past", func(s *spec.Spec) {
			s.IncastDegree, s.IncastKB, s.IncastAtUs = 2, 40, -5
		}, "incastAtUs -5: need >= 0"},
		{"fault in the past", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: -10, UpAtUs: 20}}
		}, "fault on link (l0,s1) downAtUs -10: need >= 0"},
		{"fault rate below 1 bit/s", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 10, UpAtUs: 20, RateDiv: 20_000_000_000}}
		}, "fault on link (l0,s1) rateDiv 20000000000: valid range is 0..10000000000"},
		{"negative fault rate divisor", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 10, UpAtUs: 20, RateDiv: -4}}
		}, "fault on link (l0,s1) rateDiv -4: valid range is 0..10000000000"},
		{"negative link delay", func(s *spec.Spec) { s.LinkDelayNs = -5 }, "linkDelayNs -5: need >= 0"},
		{"motiv too many spines", func(s *spec.Spec) {
			*s = DefaultScale.MotivSpec(1, 2, 2)
			s.Scheme = "ecmp"
			s.Motiv.Spines = 65
		}, "valid range is 1..64"},
		{"fault off fabric", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 9, DownAtUs: 10, UpAtUs: 20}}
		}, "outside the"},
		{"incast reps with workload", func(s *spec.Spec) {
			s.IncastReps, s.IncastDegree, s.IncastKB = 3, 4, 40
		}, "repeated-incast"},
		{"incast reps without degree", func(s *spec.Spec) {
			s.IncastReps, s.Workload, s.LoadPct = 3, "", 0
		}, "incastDegree"},
	}
	for _, c := range cases {
		s := tinySpec()
		c.mut(&s)
		_, err := Compile(s)
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("%s: want error containing %q, got %v", c.name, c.errHas, err)
		}
	}
	badMotiv := DefaultScale.MotivSpec(1, 0, 2)
	badMotiv.Scheme = "ecmp"
	if _, err := Compile(badMotiv); err == nil || !strings.Contains(err.Error(), "sprayPaths") {
		t.Errorf("zero sprayPaths: %v", err)
	}
}

// TestCompiledCellReplaysBitIdentically is the end-to-end replay acceptance:
// a figure-grid cell, serialized to canonical JSON and decoded back (the
// `figures -dump-spec` → `rlbsim -spec` path), compiles and runs to the same
// determinism fingerprint as the in-memory cell.
func TestCompiledCellReplaysBitIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := spec.Grid{
		Name: "replay",
		Base: tinySpec(),
		Axes: []spec.Axis{
			{Field: "scheme", Strs: []string{"drill+rlb", "presto"}},
			{Field: "loadPct", Ints: []int{20, 40}},
		},
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i, cell := range cells {
		data, err := spec.Encode(cell)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := spec.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		run := func(s spec.Spec) string {
			cfg := MustCompile(s)
			cfg.KeepNetwork = true
			res := Run(cfg)
			defer func() { res.Network = nil }()
			return Fingerprint(res)
		}
		direct, replayed := run(cell), run(decoded)
		if direct != replayed {
			t.Fatalf("cell %d: replay fingerprint diverged:\n%s\nvs\n%s", i, direct, replayed)
		}
	}
}

// faultEvent is one expected topo fault event at atUs.
func faultEvent(atUs int, kind topo.FaultKind, leaf, spine int, r units.Bandwidth) topo.Fault {
	return topo.Fault{At: usTime(atUs), Kind: kind, Leaf: leaf, Spine: spine, Rate: r}
}

// uplinkWindows is window w applied to each spine uplink 0..n-1 of leaf.
func uplinkWindows(leaf, n int, w spec.FaultSpec) []spec.FaultSpec {
	var fs []spec.FaultSpec
	for i := 0; i < n; i++ {
		w.Leaf, w.Spine = leaf, i
		fs = append(fs, w)
	}
	return fs
}

// checkFaultSchedule compiles faults onto a 3-leaf, 4-spine, 10 Gb/s fabric
// and compares the resulting topo fault schedule with want.
func checkFaultSchedule(t *testing.T, name string, faults []spec.FaultSpec, want []topo.Fault) {
	t.Helper()
	s := tinySpec()
	s.Leaves, s.Spines = 3, 4
	s.Faults = faults
	if got := MustCompile(s).Faults; !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
	}
}

// tinyRate is tinySpec's link rate.
const tinyRate = units.Bandwidth(10) * units.Gbps

// TestCompileFaultSchedule pins the spec→topo fault translation of a mixed
// schedule: restored kills schedule down+up, unrestored kills (UpAtUs 0)
// schedule the break only, and degrade windows carry the divided rate.
func TestCompileFaultSchedule(t *testing.T) {
	checkFaultSchedule(t, "mixed windows", []spec.FaultSpec{
		{Leaf: 0, Spine: 0, DownAtUs: 100, UpAtUs: 200},
		{Leaf: 1, Spine: 1, DownAtUs: 50, UpAtUs: 0},
		{Leaf: 0, Spine: 1, DownAtUs: 80, UpAtUs: 120, RateDiv: 4},
	}, []topo.Fault{
		faultEvent(100, topo.LinkDown, 0, 0, 0), faultEvent(200, topo.LinkUp, 0, 0, 0),
		faultEvent(50, topo.LinkDown, 1, 1, 0),
		faultEvent(80, topo.LinkRate, 0, 1, tinyRate/4), faultEvent(120, topo.LinkRate, 0, 1, tinyRate),
	})
}

// TestKillUplinksSchedule pins the schedule of a leaf losing several spine
// uplinks at once: a restored window cuts and restores every uplink, an
// unrestored one only cuts them.
func TestKillUplinksSchedule(t *testing.T) {
	checkFaultSchedule(t, "kill 3 uplinks, restore",
		uplinkWindows(2, 3, spec.FaultSpec{DownAtUs: 10000, UpAtUs: 20000}), []topo.Fault{
			faultEvent(10000, topo.LinkDown, 2, 0, 0), faultEvent(20000, topo.LinkUp, 2, 0, 0),
			faultEvent(10000, topo.LinkDown, 2, 1, 0), faultEvent(20000, topo.LinkUp, 2, 1, 0),
			faultEvent(10000, topo.LinkDown, 2, 2, 0), faultEvent(20000, topo.LinkUp, 2, 2, 0),
		})
	checkFaultSchedule(t, "kill 2 uplinks, never restore",
		uplinkWindows(0, 2, spec.FaultSpec{DownAtUs: 1000}), []topo.Fault{
			faultEvent(1000, topo.LinkDown, 0, 0, 0), faultEvent(1000, topo.LinkDown, 0, 1, 0),
		})
}

// TestDegradeUplinksSchedule pins the schedule of a leaf's uplinks dropping
// to a quarter of the link rate, never restored.
func TestDegradeUplinksSchedule(t *testing.T) {
	checkFaultSchedule(t, "degrade 2 uplinks",
		uplinkWindows(1, 2, spec.FaultSpec{DownAtUs: 1000, RateDiv: 4}), []topo.Fault{
			faultEvent(1000, topo.LinkRate, 1, 0, tinyRate/4), faultEvent(1000, topo.LinkRate, 1, 1, tinyRate/4),
		})
}
