package harness

import (
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
)

// Scale bundles the fabric size and run length used by the figure builders.
// Per-packet simulation of the paper's full 288-host 40 Gb/s fabric over
// seconds of traffic is CPU-days of work, so the default Scale is reduced;
// the relative orderings the figures demonstrate are preserved (DESIGN.md,
// substitution 4). Use PaperScale for full-size runs.
type Scale struct {
	Name         string
	Leaves       int
	Spines       int
	HostsPerLeaf int
	LinkRate     units.Bandwidth
	LinkDelay    sim.Time
	// Duration is the traffic window; Drain lets in-flight flows finish.
	Duration sim.Time
	Drain    sim.Time
	// MaxFlowBytes truncates elephant flows so they can complete within the
	// reduced window (0 = no cap).
	MaxFlowBytes int
	// MotivSpines / MotivHosts size the Fig. 2 two-leaf scenario.
	MotivSpines int
	MotivHosts  int
	// Seeds is how many seeds each figure point averages over.
	Seeds int
}

// seeds returns the averaging count, at least 1.
func (s Scale) seeds() int {
	if s.Seeds < 1 {
		return 1
	}
	return s.Seeds
}

// BenchScale is sized for `go test -bench`: a couple of seconds per figure.
var BenchScale = Scale{
	Name: "bench", Leaves: 3, Spines: 4, HostsPerLeaf: 4,
	LinkRate: 10 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
	Duration: 3 * sim.Millisecond, Drain: 9 * sim.Millisecond,
	MaxFlowBytes: 2 * 1000 * 1000,
	MotivSpines:  8, MotivHosts: 10,
	Seeds: 2,
}

// DefaultScale is the cmd/figures default: minutes for the full set.
var DefaultScale = Scale{
	Name: "default", Leaves: 4, Spines: 6, HostsPerLeaf: 6,
	LinkRate: 10 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
	Duration: 5 * sim.Millisecond, Drain: 15 * sim.Millisecond,
	MaxFlowBytes: 5 * 1000 * 1000,
	MotivSpines:  12, MotivHosts: 16,
	Seeds: 3,
}

// ScaleTier is the large-topology tier (`figures -scale scale`): a fabric
// with an order of magnitude more hosts and links than BenchScale, so the
// event queue carries the port count the scheduler was sized for. The
// benchmark's fabric-* workloads run the same 8x8/8 fabric.
var ScaleTier = Scale{
	Name: "scale", Leaves: 8, Spines: 8, HostsPerLeaf: 8,
	LinkRate: 10 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
	Duration: 2 * sim.Millisecond, Drain: 6 * sim.Millisecond,
	MaxFlowBytes: 2 * 1000 * 1000,
	MotivSpines:  8, MotivHosts: 10,
	Seeds: 1,
}

// PaperScale matches the paper's §4 settings (very slow on one machine).
var PaperScale = Scale{
	Name: "paper", Leaves: 12, Spines: 12, HostsPerLeaf: 24,
	LinkRate: 40 * units.Gbps, LinkDelay: 2 * sim.Microsecond,
	Duration: 20 * sim.Millisecond, Drain: 60 * sim.Millisecond,
	MaxFlowBytes: 0,
	MotivSpines:  40, MotivHosts: 100,
	Seeds: 3,
}

// ScaleByName resolves "bench", "scale", "default" or "paper".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "bench":
		return BenchScale, true
	case "scale":
		return ScaleTier, true
	case "default":
		return DefaultScale, true
	case "paper":
		return PaperScale, true
	}
	return Scale{}, false
}

// TopoParams returns symmetric fabric params for this scale.
func (s Scale) TopoParams() topo.Params {
	p := topo.Default(s.Leaves, s.Spines, s.HostsPerLeaf)
	p.LinkRate = s.LinkRate
	p.LinkDelay = s.LinkDelay
	s.ScaleSwitch(&p.Switch)
	return p
}

// ScaleSwitch rescales the paper's 40 Gb/s switch thresholds to this scale's
// link rate, preserving the time constants (a 256 KB PFC threshold at
// 40 Gb/s is ~51 us of line rate; the same microseconds at 10 Gb/s are
// 64 KB). Without this, reduced-rate fabrics would never trigger PFC. The
// PFC threshold is tightened by a further 2x because a reduced fabric also
// has proportionally fewer simultaneous flows per port than the paper's
// 288-host fabric, so transient bursts aggregate less (see EXPERIMENTS.md).
func (s Scale) ScaleSwitch(cfg *switchsim.Config) {
	ratio := float64(s.LinkRate) / float64(40*units.Gbps)
	if ratio >= 1 {
		return
	}
	scale := func(v int, r float64) int {
		w := int(float64(v) * r)
		if w < 2000 {
			w = 2000
		}
		return w
	}
	cfg.PFCThreshold = scale(cfg.PFCThreshold, ratio/2)
	cfg.ECNKmin = scale(cfg.ECNKmin, ratio)
	cfg.ECNKmax = scale(cfg.ECNKmax, ratio)
	// The shared pool keeps the paper's 9 MB: shrinking it would introduce
	// tail drops in the PFC-off baselines that the paper's setup never has.
}

// Spec renders this scale as a canonical fabric-kind spec base: the fabric
// shape, link rate/delay, window, and flow cap in the spec's integral units.
// Scheme/workload/load stay empty for the figure grids' axes to fill. Every
// committed Scale has microsecond-aligned durations and kilobyte-aligned
// caps, so the conversion is exact and Compile(s.Spec(seed)) reproduces
// s.TopoParams() bit-for-bit (compile_test pins it).
func (s Scale) Spec(seed uint64) spec.Spec {
	return spec.Spec{
		SimSeed:      seed,
		Leaves:       s.Leaves,
		Spines:       s.Spines,
		HostsPerLeaf: s.HostsPerLeaf,
		LinkGbps:     int(s.LinkRate / units.Gbps),
		LinkDelayNs:  int(s.LinkDelay / sim.Nanosecond),
		MaxFlowKB:    s.MaxFlowBytes / 1000,
		DurationUs:   int(s.Duration / sim.Microsecond),
		DrainUs:      int(s.Drain / sim.Microsecond),
	}
}

// MotivSpec renders this scale as a motivation-kind spec base (the Fig. 2
// scenario). The fabric shape fields are zeroed — the motivation topology is
// derived from the Motiv block — and the scheme axis fills Scheme.
func (s Scale) MotivSpec(seed uint64, sprayPaths, bursts int) spec.Spec {
	sp := s.Spec(seed)
	sp.Leaves, sp.Spines, sp.HostsPerLeaf = 0, 0, 0
	sp.Motiv = &spec.MotivSpec{
		Spines:     s.MotivSpines,
		Hosts:      s.MotivHosts,
		SprayPaths: sprayPaths,
		Bursts:     bursts,
	}
	return sp
}

// AsymTopoParams returns the §4.2 asymmetric fabric: 20% of leaf-spine links
// at a quarter of the rate (the paper's 40 -> 10 Gb/s).
func (s Scale) AsymTopoParams() topo.Params {
	p := s.TopoParams()
	p.AsymFraction = 0.2
	p.AsymRate = s.LinkRate / 4
	return p
}
