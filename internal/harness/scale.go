package harness

import (
	"fmt"
	"strings"

	"github.com/rlb-project/rlb/internal/spec"
)

// Scale is a named spec base for the figure builders: the fabric shape, link
// rate/delay, traffic window, and flow cap every figure grid starts from,
// plus the Fig. 2 scenario's size and the seed count each point averages.
// Per-packet simulation of the paper's full 288-host 40 Gb/s fabric over
// seconds of traffic is CPU-days of work, so the default Scale is reduced;
// the relative orderings the figures demonstrate are preserved (DESIGN.md,
// substitution 4). Use PaperScale for full-size runs.
type Scale struct {
	Name string
	// Base holds the fabric-kind fields every grid shares; Scheme, Workload
	// and LoadPct stay empty for the figure grids' axes to fill.
	Base spec.Spec
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
	Name: "bench",
	Base: spec.Spec{
		Leaves: 3, Spines: 4, HostsPerLeaf: 4, LinkGbps: 10, LinkDelayNs: 2000,
		MaxFlowKB: 2000, DurationUs: 3000, DrainUs: 9000,
	},
	MotivSpines: 8, MotivHosts: 10,
	Seeds: 2,
}

// DefaultScale is the cmd/figures default: minutes for the full set.
var DefaultScale = Scale{
	Name: "default",
	Base: spec.Spec{
		Leaves: 4, Spines: 6, HostsPerLeaf: 6, LinkGbps: 10, LinkDelayNs: 2000,
		MaxFlowKB: 5000, DurationUs: 5000, DrainUs: 15000,
	},
	MotivSpines: 12, MotivHosts: 16,
	Seeds: 3,
}

// ScaleTier is the large-topology tier (`figures -scale scale`): a fabric
// with an order of magnitude more hosts and links than BenchScale, so the
// event queue carries the port count the scheduler was sized for. The
// benchmark's fabric-* workloads run the same 8x8/8 fabric.
var ScaleTier = Scale{
	Name: "scale",
	Base: spec.Spec{
		Leaves: 8, Spines: 8, HostsPerLeaf: 8, LinkGbps: 10, LinkDelayNs: 2000,
		MaxFlowKB: 2000, DurationUs: 2000, DrainUs: 6000,
	},
	MotivSpines: 8, MotivHosts: 10,
	Seeds: 1,
}

// PaperScale matches the paper's §4 settings (very slow on one machine).
var PaperScale = Scale{
	Name: "paper",
	Base: spec.Spec{
		Leaves: 12, Spines: 12, HostsPerLeaf: 24, LinkGbps: 40, LinkDelayNs: 2000,
		DurationUs: 20000, DrainUs: 60000,
	},
	MotivSpines: 40, MotivHosts: 100,
	Seeds: 3,
}

// Scales are the named figure scales, in the order help text and errors
// list them.
var Scales = []Scale{BenchScale, DefaultScale, ScaleTier, PaperScale}

// ScaleByName returns the scale called name; the error lists the valid names.
func ScaleByName(name string) (Scale, error) {
	names := make([]string, len(Scales))
	for i, s := range Scales {
		if s.Name == name {
			return s, nil
		}
		names[i] = s.Name
	}
	return Scale{}, fmt.Errorf("harness: unknown scale %q (valid: %s)", name, strings.Join(names, ", "))
}

// Spec returns the scale's fabric-kind spec base at the given seed.
func (s Scale) Spec(seed uint64) spec.Spec {
	sp := s.Base.Clone()
	sp.SimSeed = seed
	return sp
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
