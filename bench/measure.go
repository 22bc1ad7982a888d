package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/transport"
)

//go:embed workloads/*.json
var workloadFiles embed.FS

// seedStride spaces the seeds of a workload's simulations. It is the stride
// the harness sweep engine spaces replica seeds by, so the seeds derived
// from one another stay as independent as a figure's.
const seedStride = 9973

// workloadNames lists the committed workloads in run order.
func workloadNames() []string {
	files, _ := workloadFiles.ReadDir("workloads") // embedded: cannot fail
	var names []string
	for _, f := range files {
		names = append(names, strings.TrimSuffix(f.Name(), ".json"))
	}
	sort.Strings(names)
	return names
}

// workloadData returns the grid list of a committed workload.
func workloadData(name string) ([]byte, error) {
	data, err := workloadFiles.ReadFile(path.Join("workloads", name+".json"))
	if err != nil {
		return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(workloadNames(), ", "))
	}
	return data, nil
}

// simCase is one simulation of a workload: a grid cell at a seed of its own.
type simCase struct {
	Grid string
	Cell int
	Spec spec.Spec
}

// expand decodes a workload's grid list and returns every simulation it
// holds: each cell of each grid, Seeds times. Simulation i of the list runs
// at simSeed = seed + i*seedStride, replacing every simSeed in the file, so
// no two simulations share their traffic. (A figure instead reuses one seed
// across a grid's cells to pair its comparisons; the benchmark wants the
// most independent draws a pass can hold, which keeps its totals steady
// from seed to seed.)
func expand(data []byte, seed uint64) ([]simCase, error) {
	grids, err := spec.DecodeGrids(data)
	if err != nil {
		return nil, err
	}
	var out []simCase
	for _, g := range grids {
		cells, err := g.Cells()
		if err != nil {
			return nil, err
		}
		for i, c := range cells {
			for k := 0; k < max(g.Seeds, 1); k++ {
				s := c.Clone()
				s.SimSeed = seed + uint64(len(out))*seedStride
				out = append(out, simCase{Grid: g.Name, Cell: i, Spec: s})
			}
		}
	}
	return out, nil
}

// simTimes are the host-clock boundaries of one simulation: Compile is
// called at start and returns at compiled; the RunConfig.Inject hook fires at
// armed, after topo.Build and workload arming and before the first event;
// Run returns at end.
type simTimes struct {
	start, compiled, armed, end time.Time
}

// runSim compiles and runs one simulation with the network retained, and
// applies the per-simulation checks. A panic is recovered and reported as
// the simulation's error.
func runSim(s spec.Spec) (res *harness.Result, t simTimes, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	t.start = time.Now()
	cfg, err := harness.Compile(s)
	t.compiled = time.Now()
	if err != nil {
		return nil, t, fmt.Errorf("compile: %w", err)
	}
	cfg.KeepNetwork = true
	arm := cfg.Inject
	cfg.Inject = func(n *topo.Network) {
		if arm != nil {
			arm(n)
		}
		t.armed = time.Now()
	}
	res = harness.Run(cfg)
	t.end = time.Now()
	if len(res.Violations) > 0 {
		return res, t, fmt.Errorf("%d invariant violation(s), first: %s", len(res.Violations), res.Violations[0])
	}
	if cfg.Topo.Switch.PFCEnabled && res.Drops > 0 {
		return res, t, fmt.Errorf("%d buffer drops with PFC on", res.Drops)
	}
	return res, t, nil
}

// measuredFlows returns the flows whose completion times a simulation
// reports: all of them, except in a motivation cell, where only the
// background flows count, as in Figs. 3 and 4. Their senders are the hosts
// numbered below Motiv.Hosts. The cell's sprayed elephant is sized never to
// finish within the run, and its burst flows are the congestion source.
func measuredFlows(s spec.Spec, flows []*transport.Flow) []*transport.Flow {
	if s.Motiv == nil {
		return flows
	}
	var bg []*transport.Flow
	for _, f := range flows {
		if f.Src < s.Motiv.Hosts {
			bg = append(bg, f)
		}
	}
	return bg
}

// span is one timed call into a layer, recorded by the benchmark around the
// public entry points it drives. Times are microseconds since the workload
// process started.
type span struct {
	Name    string  `json:"name"`
	Round   int     `json:"round"`
	Grid    string  `json:"grid,omitempty"`
	Cell    int     `json:"cell"`
	Seed    uint64  `json:"seed"`
	StartUs float64 `json:"startUs"`
	DurUs   float64 `json:"durUs"`
}

// pass is one run through every simulation of a workload.
type pass struct {
	round int // the round of the measurement the pass belongs to

	// Host time, summed over simulations: wall from Compile to Run return,
	// loop from the Inject hook to Run return, compile in Compile and build
	// from Compile's return to the Inject hook. decode is the one decoding
	// of the grids; setups holds each simulation's compile plus build.
	wall, loop             time.Duration
	decode, compile, build time.Duration
	setups                 []time.Duration
	// steps holds the calibration step (see calibrate.go), in ns, sampled
	// between simulations during the pass.
	steps []float64

	sims, flows, unfinished int
	fct                     metrics.Digest // censored, ms; summarized by finish
	fctMean, fctP99         float64
	counts                  map[string]float64
	prints                  [][sha256.Size]byte
	failures                []string
	spans                   []span

	// Go runtime activity inside the simulations, not counting the
	// collection forced before each.
	allocBytes, mallocs, gcs, gcPauseNs uint64
}

// add runs simulation i of the pass, c, and folds its timings, counts,
// flows and checks into p. Its fingerprint must equal ref[i] when ref is
// given. Spans are kept when traced is set.
func (p *pass) add(i int, c simCase, ref [][sha256.Size]byte, epoch time.Time, traced bool) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, t, err := runSim(c.Spec)
	runtime.ReadMemStats(&m1)
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.gcs += uint64(m1.NumGC - m0.NumGC)
	p.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	p.sims++
	if res != nil && err == nil {
		fp := sha256.Sum256([]byte(harness.Fingerprint(res)))
		if ref != nil && fp != ref[i] {
			err = fmt.Errorf("fingerprint differs from the first pass")
		}
		p.prints = append(p.prints, fp)
	} else {
		p.prints = append(p.prints, [sha256.Size]byte{})
	}
	if err != nil {
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", c.Spec.Params(), err))
	}
	if res == nil {
		return
	}
	p.wall += t.end.Sub(t.start)
	p.setups = append(p.setups, t.armed.Sub(t.start))
	p.loop += t.end.Sub(t.armed)
	p.compile += t.compiled.Sub(t.start)
	p.build += t.armed.Sub(t.compiled)
	flows := measuredFlows(c.Spec, res.Network.Flows)
	p.flows += len(flows)
	p.unfinished += addCensoredFCT(&p.fct, flows, res.SimTime)
	countLayers(p.counts, res)
	if traced {
		for _, s := range []struct {
			name     string
			from, to time.Time
		}{
			{"harness.compile", t.start, t.compiled},
			{"topo.build", t.compiled, t.armed},
			{"sim.run", t.armed, t.end},
		} {
			p.spans = append(p.spans, span{Name: s.name, Round: p.round, Grid: c.Grid, Cell: c.Cell, Seed: c.Spec.SimSeed,
				StartUs: sinceUs(epoch, s.from), DurUs: float64(s.to.Sub(s.from).Nanoseconds()) / 1e3})
		}
	}
}

// finish summarizes the pass's flow completion times.
func (p *pass) finish() {
	p.fctMean, p.fctP99 = p.fct.Mean(), p.fct.Percentile(99)
	p.fct = metrics.Digest{}
}

// sinceUs returns the microseconds from epoch to t.
func sinceUs(epoch, t time.Time) float64 { return float64(t.Sub(epoch).Nanoseconds()) / 1e3 }

// runRound runs every simulation of the workload once, in order, each
// starting when the previous one returns, and returns that pass. ref holds
// the fingerprints of the first pass, which every later one must match.
//
// With profileTo set, each simulation runs a second time straight after its
// untraced run, under the CPU profiler writing to profileTo(i), and the
// traced pass tp holds those runs. Interleaving by simulation keeps each
// traced run within seconds of its untraced twin, so a host slowdown hits
// both alike and the overhead of tracing shows through it.
func runRound(data []byte, seed uint64, ref [][sha256.Size]byte, epoch time.Time, round int, profileTo func(i int) string) (p, tp *pass, err error) {
	t0 := time.Now()
	cases, err := expand(data, seed)
	decode := time.Since(t0)
	if err != nil {
		return nil, nil, err
	}
	if ref != nil && len(ref) != len(cases) {
		return nil, nil, fmt.Errorf("round %d expanded to %d simulations, the first to %d", round, len(cases), len(ref))
	}
	p = &pass{round: round, decode: decode, counts: map[string]float64{}}
	if profileTo != nil {
		tp = &pass{round: round, decode: decode, counts: map[string]float64{}}
		tp.spans = append(tp.spans, span{Name: "spec.decode", Round: round, Cell: -1, Seed: seed,
			StartUs: sinceUs(epoch, t0), DurUs: float64(decode.Nanoseconds()) / 1e3})
	}
	var sampled time.Time
	sample := func() {
		step := calibrate()
		p.steps = append(p.steps, step)
		if tp != nil {
			tp.steps = append(tp.steps, step)
		}
		sampled = time.Now()
	}
	for i, c := range cases {
		if time.Since(sampled) >= calEvery {
			sample()
		}
		// Every simulation starts from a collected heap, as a run of its own
		// would. Otherwise whether a collection cycle lands inside the
		// sub-millisecond set-up depends on the garbage the previous
		// simulation left, and set-up times scatter by a factor of ten.
		runtime.GC()
		p.add(i, c, ref, epoch, false)
		if tp == nil {
			continue
		}
		twins := ref
		if twins == nil {
			twins = p.prints
		}
		runtime.GC()
		if err := profile(profileTo(i), func() { tp.add(i, c, twins, epoch, true) }); err != nil {
			return nil, nil, err
		}
	}
	sample()
	p.finish()
	if tp != nil {
		tp.finish()
	}
	return p, tp, nil
}

// stepNs returns the mean calibration step during the pass.
func (p *pass) stepNs() float64 {
	var sum float64
	for _, s := range p.steps {
		sum += s
	}
	return sum / float64(len(p.steps))
}

// refScale converts the pass's host times to the reference speed.
func (p *pass) refScale() float64 { return refStepNs / p.stepNs() }

// measure runs a workload for about seconds of host time and returns its
// record. It repeats rounds while the next one is expected to end within
// the budget, and always runs at least one. With traced set, each round
// also runs every simulation under the CPU profiler (see runRound); the
// profiles are written to workDir and folded by layer at the end.
func measure(ctx context.Context, name string, data []byte, seed uint64, seconds float64, traced bool, workDir string) (*record, error) {
	epoch := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var plain, profiled []*pass
	var ref [][sha256.Size]byte
	var profiles []string
	defer func() {
		for _, f := range profiles {
			os.Remove(f)
		}
	}()
	for round := 0; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var profileTo func(i int) string
		if traced {
			profileTo = func(i int) string {
				f := filepath.Join(workDir, fmt.Sprintf("%s-%d-%d-%d.pprof", name, os.Getpid(), round, i))
				profiles = append(profiles, f)
				return f
			}
		}
		p, tp, err := runRound(data, seed, ref, epoch, round, profileTo)
		if err != nil {
			return nil, err
		}
		if ref == nil {
			ref = p.prints
		}
		plain = append(plain, p)
		if tp != nil {
			profiled = append(profiled, tp)
		}
		elapsed := time.Since(epoch)
		if elapsed+elapsed/time.Duration(round+1) > budget {
			break
		}
	}
	rec := newRecord(ctx, name, seed, seconds, traced, plain, profiled)
	if traced {
		top, err := pprofTop(ctx, profiles)
		if err != nil {
			return nil, err
		}
		cpu, err := foldTop(top)
		if err != nil {
			return nil, err
		}
		rec.Layers = metricSet(perLayer, layerMetrics(plain, profiled, cpu))
	}
	return rec, nil
}

// profile runs fn under the CPU profiler, writing the profile to file.
func profile(file string, fn func()) error {
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	return f.Close()
}
