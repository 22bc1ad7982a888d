package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
	"github.com/rlb-project/rlb/internal/workload"
)

// usTime converts integral microseconds to sim.Time.
func usTime(us int) sim.Time { return sim.Time(us) * sim.Microsecond }

// nsTime converts integral nanoseconds to sim.Time.
func nsTime(ns int) sim.Time { return sim.Time(ns) * sim.Nanosecond }

// specLinkDelay returns the spec's per-hop delay (default 2 µs).
func specLinkDelay(s spec.Spec) sim.Time {
	if s.LinkDelayNs > 0 {
		return nsTime(s.LinkDelayNs)
	}
	return 2 * sim.Microsecond
}

// specRate returns the spec's symmetric link rate.
func specRate(s spec.Spec) units.Bandwidth { return units.Bandwidth(s.LinkGbps) * units.Gbps }

// fabricParams builds the topology params every experiment kind starts from:
// the paper's fabric at the given shape, the spec's link rate and delay, its
// switch thresholds rescaled to that rate, and lossless mode unless PFCOff.
func fabricParams(s spec.Spec, leaves, spines, hostsPerLeaf int) topo.Params {
	p := topo.Default(leaves, spines, hostsPerLeaf)
	p.LinkRate = specRate(s)
	p.LinkDelay = specLinkDelay(s)
	rescaleSwitch(&p.Switch, p.LinkRate)
	p.Switch.PFCEnabled = !s.PFCOff
	return p
}

// rescaleSwitch rescales the paper's 40 Gb/s switch thresholds to the link
// rate, preserving the time constants (a 256 KB PFC threshold at 40 Gb/s is
// ~51 us of line rate; the same microseconds at 10 Gb/s are 64 KB). Without
// this, reduced-rate fabrics would never trigger PFC. The PFC threshold is
// tightened by a further 2x because a reduced fabric also has proportionally
// fewer simultaneous flows per port than the paper's 288-host fabric, so
// transient bursts aggregate less (see EXPERIMENTS.md).
func rescaleSwitch(cfg *switchsim.Config, rate units.Bandwidth) {
	ratio := float64(rate) / float64(40*units.Gbps)
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

// specFaults renders the spec's fault windows as the topo fault schedule.
// Windows that restore (UpAtUs > DownAtUs) schedule both the break and the
// repair; non-restoring windows schedule the break only.
func specFaults(s spec.Spec) []topo.Fault {
	rate := specRate(s)
	var fs []topo.Fault
	for _, f := range s.Faults {
		if f.Kill() {
			fs = append(fs, topo.Fault{At: usTime(f.DownAtUs), Kind: topo.LinkDown, Leaf: f.Leaf, Spine: f.Spine})
			if f.Restores() {
				fs = append(fs, topo.Fault{At: usTime(f.UpAtUs), Kind: topo.LinkUp, Leaf: f.Leaf, Spine: f.Spine})
			}
		} else {
			fs = append(fs, topo.Fault{At: usTime(f.DownAtUs), Kind: topo.LinkRate, Leaf: f.Leaf, Spine: f.Spine, Rate: rate / units.Bandwidth(f.RateDiv)})
			if f.Restores() {
				fs = append(fs, topo.Fault{At: usTime(f.UpAtUs), Kind: topo.LinkRate, Leaf: f.Leaf, Spine: f.Spine, Rate: rate})
			}
		}
	}
	return fs
}

// Compile translates the canonical experiment spec into the RunConfig the
// harness executes — the single point where spec fields become simulator
// parameters, shared by the figure sweep engine, both CLIs, and the scenario
// fuzzer. It validates against the real registries (scheme, workload, fault
// addresses) and the fabric's dimension limits, and returns errors that list
// the valid names or range.
//
// The compiled config always carries Context = s.Params(), so every
// invariant violation is labeled with the full reproducible parameter set in
// one format, no matter which layer launched the run.
func Compile(s spec.Spec) (RunConfig, error) {
	if s.Motiv != nil {
		return compileMotivation(s)
	}
	return compileFabric(s)
}

// MustCompile is Compile for code-authored specs, where an error is a bug.
func MustCompile(s spec.Spec) RunConfig {
	cfg, err := Compile(s)
	if err != nil {
		panic(fmt.Sprintf("harness: compile spec: %v", err))
	}
	return cfg
}

// validateShape checks the fields every kind shares.
func validateShape(s spec.Spec) error {
	if s.LinkGbps < 1 {
		return fmt.Errorf("linkGbps %d: need >= 1", s.LinkGbps)
	}
	if s.LinkDelayNs < 0 {
		return fmt.Errorf("linkDelayNs %d: need >= 0", s.LinkDelayNs)
	}
	if s.DurationUs <= 0 {
		return fmt.Errorf("durationUs %d: need > 0", s.DurationUs)
	}
	if s.DrainUs < 0 || s.MaxFlowKB < 0 || s.LoadPct < 0 {
		return fmt.Errorf("negative drainUs/maxFlowKB/loadPct")
	}
	if s.LoadPct > 100 {
		return fmt.Errorf("loadPct %d: valid range is 0..100", s.LoadPct)
	}
	if s.Telemetry != nil && s.Telemetry.SampleUs < 1 {
		return fmt.Errorf("telemetry sampleUs %d: need >= 1", s.Telemetry.SampleUs)
	}
	return nil
}

// checkSpines rejects a spine count topo.Build would refuse.
func checkSpines(field string, n int) error {
	if n < 1 || n > topo.MaxSpines {
		return fmt.Errorf("%s %d: valid range is 1..%d", field, n, topo.MaxSpines)
	}
	return nil
}

// specTelemetry returns the spec's sampling interval (0 = telemetry off).
func specTelemetry(s spec.Spec) sim.Time {
	if s.Telemetry == nil {
		return 0
	}
	return usTime(s.Telemetry.SampleUs)
}

// compileFabric builds the config for the fabric and repeated-incast kinds.
func compileFabric(s spec.Spec) (RunConfig, error) {
	if err := validateShape(s); err != nil {
		return RunConfig{}, err
	}
	if s.Leaves < 1 || s.HostsPerLeaf < 1 {
		return RunConfig{}, fmt.Errorf("fabric %dx%d/%d: need >= 1 leaves, hosts per leaf",
			s.Leaves, s.Spines, s.HostsPerLeaf)
	}
	if err := checkSpines("spines", s.Spines); err != nil {
		return RunConfig{}, err
	}
	if s.AsymPct < 0 || s.AsymPct > 100 {
		return RunConfig{}, fmt.Errorf("asymPct %d: valid range is 0..100", s.AsymPct)
	}
	p := fabricParams(s, s.Leaves, s.Spines, s.HostsPerLeaf)
	if s.AsymPct > 0 {
		p.AsymFraction = float64(s.AsymPct) / 100
		p.AsymRate = p.LinkRate / 4
	}
	if err := applyScheme(&p, s); err != nil {
		return RunConfig{}, err
	}
	if s.SelectiveRepeat {
		p.Host.SelectiveRepeat = true
	}
	for _, f := range s.Faults {
		if f.Leaf < 0 || f.Leaf >= s.Leaves || f.Spine < 0 || f.Spine >= s.Spines {
			return RunConfig{}, fmt.Errorf("fault on link (l%d,s%d) outside the %dx%d fabric",
				f.Leaf, f.Spine, s.Leaves, s.Spines)
		}
		if f.DownAtUs < 0 {
			return RunConfig{}, fmt.Errorf("fault on link (l%d,s%d) downAtUs %d: need >= 0",
				f.Leaf, f.Spine, f.DownAtUs)
		}
		// RateDiv 0 or 1 is a kill window; above that the link runs at
		// LinkRate/RateDiv bit/s, which must stay at least 1.
		if maxDiv := int64(specRate(s)); f.RateDiv < 0 || int64(f.RateDiv) > maxDiv {
			return RunConfig{}, fmt.Errorf("fault on link (l%d,s%d) rateDiv %d: valid range is 0..%d",
				f.Leaf, f.Spine, f.RateDiv, maxDiv)
		}
	}

	if s.IncastReps > 0 {
		if s.Workload != "" || s.LoadPct > 0 {
			return RunConfig{}, fmt.Errorf("incastReps runs the dedicated repeated-incast experiment; background workload/load must be empty")
		}
		if s.IncastDegree < 1 || s.IncastKB < 1 {
			return RunConfig{}, fmt.Errorf("incastReps %d needs incastDegree >= 1 and incastKB >= 1", s.IncastReps)
		}
		return compileIncastReps(s, p), nil
	}

	if s.IncastDegree >= 2 {
		if hosts := s.Leaves * s.HostsPerLeaf; s.IncastClient < 0 || s.IncastClient >= hosts {
			return RunConfig{}, fmt.Errorf("incastClient %d: valid range is 0..%d", s.IncastClient, hosts-1)
		}
		if s.IncastAtUs < 0 {
			return RunConfig{}, fmt.Errorf("incastAtUs %d: need >= 0", s.IncastAtUs)
		}
	}

	var dist *workload.SizeDist
	if s.Workload != "" {
		var err error
		dist, err = workload.ByName(s.Workload)
		if err != nil {
			return RunConfig{}, err
		}
	}

	sp := s // captured by the inject hook below
	var inject func(n *topo.Network)
	if sp.LeakPutEvery > 0 || sp.IncastDegree >= 2 {
		inject = func(n *topo.Network) {
			if sp.LeakPutEvery > 0 {
				n.PacketPool().LeakEvery = sp.LeakPutEvery
			}
			if sp.IncastDegree >= 2 {
				var servers []int
				hosts := sp.Leaves * sp.HostsPerLeaf
				for h := 0; h < hosts && len(servers) < sp.IncastDegree; h++ {
					if h != sp.IncastClient {
						servers = append(servers, h)
					}
				}
				n.Eng.At(usTime(sp.IncastAtUs), func() {
					workload.Incast(n.Starter(), sp.IncastClient, servers, sp.IncastKB*1000)
				})
			}
		}
	}

	return RunConfig{
		Topo:             p,
		Workload:         dist,
		Load:             float64(s.LoadPct) / 100,
		MaxFlowBytes:     s.MaxFlowKB * 1000,
		Duration:         usTime(s.DurationUs),
		Drain:            usTime(s.DrainUs),
		Inject:           inject,
		Faults:           specFaults(s),
		StrictInvariants: s.Strict,
		Context:          s.Params(),
		Seed:             s.SimSeed,
		Telemetry:        specTelemetry(s),
	}, nil
}

// compileIncastReps builds the Fig. 8 repeated-incast experiment: IncastReps
// initiations, each a fan-in of IncastDegree randomly drawn servers sending
// IncastKB total to a randomly drawn client. Initiations are spaced so each
// completes before the next begins even with contention slowdown: the
// client's downlink needs totalBytes/rate, and PFC/retransmissions can
// stretch that several-fold. Each initiation starts all its flows in one
// event, and the network is retained, so incastMetrics can group the flows
// by initiation from their start times alone.
func compileIncastReps(s spec.Spec, p topo.Params) RunConfig {
	totalBytes := s.IncastKB * 1000
	reps := s.IncastReps
	degree := s.IncastDegree
	// Initiations are four ideal transfer times apart, or an even share of
	// the traffic window when that is longer.
	gap := 4 * incastIdeal(s)
	if share := usTime(s.DurationUs) / sim.Time(reps); gap < share {
		gap = share
	}
	seed := s.SimSeed
	return RunConfig{
		Topo:             p,
		Duration:         sim.Time(reps) * gap,
		Drain:            usTime(s.DrainUs) + 8*incastIdeal(s),
		Seed:             seed,
		KeepNetwork:      true,
		StrictInvariants: s.Strict,
		Context:          s.Params(),
		Telemetry:        specTelemetry(s),
		Inject: func(n *topo.Network) {
			r := rng.New(seed + 31)
			numHosts := len(n.Hosts)
			for rep := 0; rep < reps; rep++ {
				at := sim.Time(rep) * gap
				n.Eng.At(at, func() {
					client := r.Intn(numHosts)
					per := totalBytes / degree
					if per < 1 {
						per = 1
					}
					used := map[int]bool{client: true}
					for k := 0; k < degree && len(used) < numHosts; k++ {
						srv := r.Intn(numHosts)
						for used[srv] {
							srv = r.Intn(numHosts)
						}
						used[srv] = true
						n.StartFlow(srv, client, per)
					}
				})
			}
		},
	}
}

// incastIdeal is one initiation's line-rate transfer time into the client.
func incastIdeal(s spec.Spec) sim.Time { return units.TxTime(s.IncastKB*1000, specRate(s)) }

// compileMotivation builds the Fig. 2 scenario config from a motivation-kind
// spec. The topology is derived (2 leaves x Motiv.Spines, host count from
// Motiv.Hosts); the spec's fabric shape fields are ignored. The network is
// retained so specMetrics can separate the background (victim) flows.
func compileMotivation(s spec.Spec) (RunConfig, error) {
	if err := validateShape(s); err != nil {
		return RunConfig{}, err
	}
	m := s.Motiv
	if m.Hosts < 1 {
		return RunConfig{}, fmt.Errorf("motiv %d pairs: need >= 1", m.Hosts)
	}
	if err := checkSpines("motiv spines", m.Spines); err != nil {
		return RunConfig{}, err
	}
	if m.SprayPaths < 1 {
		return RunConfig{}, fmt.Errorf("motiv sprayPaths %d: need >= 1", m.SprayPaths)
	}
	cfg, err := motivationConfig(s)
	if err != nil {
		return RunConfig{}, err
	}
	cfg.Context = s.Params()
	cfg.Telemetry = specTelemetry(s)
	return cfg, nil
}
