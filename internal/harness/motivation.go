package harness

import (
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/workload"
)

// motivationConfig builds the Fig. 2 scenario's RunConfig from a
// motivation-kind spec: two leaf switches joined by Motiv.Spines equal-cost
// paths, background flows H1..Hn -> R1..Rn (n = Motiv.Hosts), bursty hosts Hb
// blasting receiver Rc, and a long congested flow fc from Hc to Rc sprayed
// over Motiv.SprayPaths parallel paths. Host ids below Motiv.Hosts are the
// victim flows motivationMetrics measures.
func motivationConfig(sp spec.Spec) (RunConfig, error) {
	m := sp.Motiv
	nBg := m.Hosts
	nBurst := nBg / 4
	if nBurst < 2 {
		nBurst = 2
	}
	hostsPerLeaf := nBg + 1 + nBurst

	p := fabricParams(sp, 2, m.Spines, hostsPerLeaf)
	if err := applyScheme(&p, sp); err != nil {
		return RunConfig{}, err
	}

	// Host roles (leaf 0 then leaf 1). Burst hosts sit on leaf 0 so their
	// line-rate 64 KB flows cross the fabric toward Rc: they are what pauses
	// the parallel paths (Fig. 2 places Hb behind the spine layer).
	hc := nBg                // congested-flow sender on leaf 0
	rc := hostsPerLeaf + nBg // its receiver on leaf 1
	burstBase := nBg + 1     // burst hosts on leaf 0

	maxFlow := sp.MaxFlowKB * 1000
	fcSize := 25 * 1000 * 1000 // scaled stand-in for the paper's 250 MB flow
	if maxFlow > 0 && fcSize > 10*maxFlow {
		fcSize = 10 * maxFlow
	}
	burstFlowSize := 64 * 1000
	burstFlowsPerHost := 10 // scaled stand-in for the paper's 40
	burstGap := 400 * sim.Microsecond

	const bgLoad = 0.55 // background senders' offered load
	sprayPaths, bursts, seed := m.SprayPaths, m.Bursts, sp.SimSeed
	dur := usTime(sp.DurationUs)

	return RunConfig{
		Topo: p,
		// KeepNetwork so motivationMetrics can separate the victim flows;
		// RunSpecsAveraged drops the result once its metrics are taken.
		KeepNetwork:      true,
		StrictInvariants: sp.Strict,
		Duration:         dur,
		Drain:            usTime(sp.DrainUs),
		Seed:             seed,
		Inject: func(n *topo.Network) {
			// Congested flow fc over SprayPaths parallel paths.
			fc := n.StartFlow(hc, rc, fcSize)
			n.SprayFlow(fc, sprayPaths)

			// Continuous bursts into Rc (intra-leaf on leaf 1).
			var burstHosts []int
			for b := 0; b < nBurst; b++ {
				burstHosts = append(burstHosts, burstBase+b)
			}
			workload.Bursts(n.Eng, n.Starter(), burstHosts, rc,
				burstFlowsPerHost, burstFlowSize, bursts, burstGap)

			// Background pairs Hi -> Ri with Poisson arrivals (Web Search).
			pairedPoisson(n, rng.New(seed+13), workload.WebSearch(),
				nBg, hostsPerLeaf, bgLoad, dur, maxFlow)
		},
	}, nil
}

// pairedPoisson drives Poisson flow arrivals from sender i (host id i on
// leaf 0) to receiver i (host id hostsPerLeaf+i on leaf 1), at the given
// aggregate load, with sizes from dist (optionally capped).
func pairedPoisson(n *topo.Network, r *rng.Source, dist *workload.SizeDist,
	nPairs, hostsPerLeaf int, load float64, dur sim.Time, cap int) {

	lambda := load * float64(n.P.LinkRate) * float64(nPairs) / (8 * dist.Mean())
	stopAt := n.Eng.Now() + dur
	var schedule func()
	schedule = func() {
		gap := sim.Time(r.ExpFloat64() / lambda * float64(sim.Second))
		if gap < sim.Nanosecond {
			gap = sim.Nanosecond
		}
		at := n.Eng.Now() + gap
		if at >= stopAt {
			return
		}
		n.Eng.At(at, func() {
			i := r.Intn(nPairs)
			size := dist.Sample(r)
			if cap > 0 && size > cap {
				size = cap
			}
			n.StartFlow(i, hostsPerLeaf+i, size)
			schedule()
		})
	}
	schedule()
}
