// Package harness runs the paper's experiments: it builds scenarios
// (topology + scheme + workload), executes many independent simulations in
// parallel across CPU cores, and renders the result tables/series for every
// figure in the evaluation section (Figs. 3, 4, 6, 7, 8, 9, 10).
package harness

import (
	"runtime"
	"sync"
	"time"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/invariant"
	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/rng"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/telemetry"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/workload"
)

// RunConfig describes one simulation.
type RunConfig struct {
	// Topo is the fabric; Build-ready.
	Topo topo.Params
	// Workload, when non-nil, drives Poisson inter-leaf traffic at Load.
	Workload *workload.SizeDist
	Load     float64
	// MaxFlowBytes truncates sampled flow sizes (0 = no cap). Scaled-down
	// runs cap elephants so they can finish within the window; see
	// EXPERIMENTS.md.
	MaxFlowBytes int
	// Duration is the traffic generation window; Drain is extra time for
	// in-flight flows to finish.
	Duration sim.Time
	Drain    sim.Time
	// Inject, when non-nil, adds custom traffic after the network is built
	// (bursts, incast, the Fig. 2 scenario).
	Inject func(n *topo.Network)
	// Faults schedules fault-plane events (link down/up/degrade) on the
	// simulation clock; Compile renders them from the spec's FaultSpec
	// windows (see topo.Fault).
	Faults []topo.Fault
	// KeepNetwork retains the full built network in Result.Network for
	// scenario-specific digging. Off by default: a sweep's worth of retained
	// topologies pins gigabytes.
	KeepNetwork bool
	// StrictInvariants enables the invariant checker's expensive tier
	// (per-mutation shared-pool conservation audits, per-flow PSN delivery
	// tracking) on top of the always-on cheap assertions.
	StrictInvariants bool
	// Context labels every invariant violation this run records so a
	// failure in a log is reproducible from the message alone. Compile sets
	// it to the spec's full parameter set (spec.Spec.Params).
	Context string
	Seed    uint64
	// Telemetry, when nonzero, samples the network's probe set at this
	// interval and attaches the recorded series to Result.Telemetry.
	// Sampling is observation-only — probes read state, the sampler's
	// events shift no other event's relative order — so every figure and
	// fingerprint is bit-identical with telemetry on or off.
	Telemetry sim.Time
}

// Result captures one simulation's outcome.
type Result struct {
	Report  *metrics.FlowReport
	Pauses  uint64
	Recircs uint64
	Drops   uint64
	// Agents aggregates RLB rerouting-module stats across leaves
	// (Agents.WarningsRcvd counts the CNMs the leaf agents accepted).
	Agents  core.AgentStats
	SimTime sim.Time
	Wall    time.Duration
	// Events counts engine events dispatched during the run (throughput
	// denominator for the perf harness's events/sec metric).
	Events uint64
	// WireLost counts frames lost on cut links (fault plane), which are
	// deliberately not part of Drops: wire loss is injected, buffer drops
	// are a simulator bug under PFC.
	WireLost uint64
	// Violations holds every invariant the checker saw break during the run
	// (empty on a healthy simulation; see internal/invariant).
	Violations []invariant.Violation
	// InvariantChecks counts executed assertions (sanity that checking ran).
	InvariantChecks uint64
	// Network is only retained when RunConfig.KeepNetwork is set.
	Network *topo.Network
	// Telemetry holds the sampled probe series when RunConfig.Telemetry was
	// set (nil otherwise).
	Telemetry *telemetry.Recording
}

// PauseRatePerMs returns PAUSE frames per simulated millisecond.
func (r *Result) PauseRatePerMs() float64 {
	return metrics.PauseRate(r.Pauses, r.SimTime)
}

// Run executes one simulation to completion.
func Run(cfg RunConfig) *Result {
	//simlint:allow(determinism) wall-clock feeds only the Wall perf counter, never simulation state
	start := time.Now()
	cfg.Topo.Seed = cfg.Seed + 1
	checker := cfg.Topo.Checker
	if checker == nil {
		checker = invariant.New(cfg.StrictInvariants)
		cfg.Topo.Checker = checker
	}
	checker.SetContext(cfg.Context)
	n := topo.Build(cfg.Topo)
	n.ScheduleFaults(cfg.Faults)

	if cfg.Workload != nil && cfg.Load > 0 {
		hosts := make([]int, len(n.Hosts))
		for i := range hosts {
			hosts[i] = i
		}
		gen := &workload.Poisson{
			Eng:           n.Eng,
			Rng:           rng.New(cfg.Seed + 7),
			Dist:          cfg.Workload,
			Hosts:         hosts,
			HostsPerLeaf:  cfg.Topo.HostsPerLeaf,
			InterLeafOnly: true,
			Load:          cfg.Load,
			LineRate:      cfg.Topo.LinkRate,
			Start:         n.Starter(),
			CapBytes:      cfg.MaxFlowBytes,
		}
		gen.Run(cfg.Duration)
	}
	if cfg.Inject != nil {
		cfg.Inject(n)
	}

	var samp *telemetry.Sampler
	if cfg.Telemetry > 0 {
		reg := telemetry.NewRegistry()
		n.AttachTelemetry(reg)
		// One tick at t=0, one per interval through Duration+Drain, plus one
		// slot of slack for the boundary tick.
		capacity := int((cfg.Duration+cfg.Drain)/cfg.Telemetry) + 2
		samp = telemetry.NewSampler(n.Eng, reg, cfg.Telemetry, capacity)
		samp.Start()
	}

	n.Run(cfg.Duration + cfg.Drain)
	if samp != nil {
		samp.Stop()
	}
	n.StopRLB()
	n.AuditInvariants()

	res := &Result{
		Report:          metrics.BuildFlowReport(n.Flows),
		Pauses:          n.PauseFramesSent(),
		Recircs:         n.Recirculations(),
		Drops:           n.Drops(),
		SimTime:         n.Eng.Now(),
		Wall:            time.Since(start), //simlint:allow(determinism) wall-clock perf counter only; excluded from golden figures
		Events:          n.Eng.Executed,
		WireLost:        n.WireLost(),
		Violations:      checker.Violations(),
		InvariantChecks: checker.Checks(),
	}
	if samp != nil {
		res.Telemetry = samp.Recording()
	}
	if cfg.KeepNetwork {
		res.Network = n
	}
	for _, a := range n.Agents {
		if a == nil {
			continue
		}
		res.Agents.WarningsRcvd += a.Stats.WarningsRcvd
		res.Agents.PicksTotal += a.Stats.PicksTotal
		res.Agents.PicksWarned += a.Stats.PicksWarned
		res.Agents.Reroutes += a.Stats.Reroutes
		res.Agents.Recircs += a.Stats.Recircs
		res.Agents.Fallbacks += a.Stats.Fallbacks
		res.Agents.OrderStays += a.Stats.OrderStays
		res.Agents.OrderRecircs += a.Stats.OrderRecircs
		res.Agents.DivertSticky += a.Stats.DivertSticky
		res.Agents.StayCheaper += a.Stats.StayCheaper
	}
	return res
}

// RunAll executes configs concurrently on Parallel's worker pool and returns
// results in input order.
func RunAll(cfgs []RunConfig) []*Result {
	results := make([]*Result, len(cfgs))
	Parallel(len(cfgs), 0, func(i int) { results[i] = Run(cfgs[i]) })
	return results
}

// Parallel calls do(i) for every i in [0, n) on up to `workers` goroutines
// (GOMAXPROCS when workers <= 0) and returns once every call has finished.
// It is the only non-test code in the repository that starts goroutines.
//
// Worker-isolation contract: do(i) must depend on i alone and write only
// state owned by index i. Every simulation qualifies — Run builds a fresh
// engine, network, and seeded RNG streams per call — so callers that store
// do(i)'s result in slot i of a preallocated slice get byte-identical output
// for any worker count (invariants_test.go asserts it). Workers communicate
// only via the index channel, so no locks are needed.
func Parallel(n, workers int, do func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				do(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
