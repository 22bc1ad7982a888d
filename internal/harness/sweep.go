package harness

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/transport"
)

// Metrics is the seed-averaged outcome of one spec cell, covering all three
// experiment kinds. Fabric cells fill the FCT/reordering/pause block;
// motivation cells fill the same block measured over the background (victim)
// flows only; repeated-incast cells fill OOORatio/ICTms
// and the initiation counters. Unused fields stay zero.
type Metrics struct {
	AFCT      float64 // mean FCT, ms
	P25       float64
	P50       float64
	P75       float64
	P90       float64
	P99       float64 // tail FCT, ms
	OOOPct    float64 // out-of-order arrivals, % of received
	OODp99    float64 // 99th percentile out-of-order degree, packets
	PauseRate float64 // PAUSE frames per simulated ms
	Completed float64 // flows completed

	// OOORatio is the incast kind's raw out-of-order ratio (the Fig. 8
	// tables multiply the averaged value by 100 at presentation time).
	OOORatio float64
	// ICTms is the incast kind's mean completion time of the last flow per
	// initiation, ms.
	ICTms float64
	// Initiations/Finished count incast initiations scheduled/fully finished,
	// summed (not averaged) across seeds.
	Initiations int
	Finished    int

	// Violations totals invariant-checker findings across all seeds (not
	// averaged: any nonzero value is a bug).
	Violations int
	Seeds      int
}

// averaged lists the fields RunSpecsAveraged averages over seeds (the
// counters it sums are not among them).
func (m *Metrics) averaged() []*float64 {
	return []*float64{&m.AFCT, &m.P25, &m.P50, &m.P75, &m.P90, &m.P99, &m.OOOPct,
		&m.OODp99, &m.PauseRate, &m.Completed, &m.OOORatio, &m.ICTms}
}

// specMetrics extracts one run's raw metric values for the spec that compiled
// it, dispatching on the spec's experiment kind.
func specMetrics(s spec.Spec, r *Result) Metrics {
	switch {
	case s.Motiv != nil:
		return motivationMetrics(s, r)
	case s.IncastReps > 0:
		return incastMetrics(r)
	default:
		rep := r.Report
		return Metrics{
			AFCT:       rep.AvgFCTms(),
			P25:        rep.FCT.Percentile(25),
			P50:        rep.FCT.Percentile(50),
			P75:        rep.FCT.Percentile(75),
			P90:        rep.FCT.Percentile(90),
			P99:        rep.TailFCTms(),
			OOOPct:     100 * rep.OOORatio(),
			OODp99:     rep.OOD.Percentile(99),
			PauseRate:  r.PauseRatePerMs(),
			Completed:  float64(rep.Completed),
			Violations: len(r.Violations),
		}
	}
}

// motivationMetrics measures the background (victim) flows of a motivation
// run — host ids below Motiv.Hosts are the Fig. 2 senders H1..Hn.
func motivationMetrics(s spec.Spec, r *Result) Metrics {
	nBg := s.Motiv.Hosts
	var flows []*transport.Flow
	for _, f := range r.Network.Flows {
		if f.Src < nBg {
			flows = append(flows, f)
		}
	}
	bg := metrics.BuildFlowReport(flows)
	return Metrics{
		AFCT:       bg.AvgFCTms(),
		P99:        bg.TailFCTms(),
		OOOPct:     100 * bg.OOORatio(),
		OODp99:     bg.OOD.Percentile(99),
		PauseRate:  r.PauseRatePerMs(),
		Completed:  float64(bg.Completed),
		Violations: len(r.Violations),
	}
}

// incastMetrics measures a repeated-incast run. The compiler starts all of
// one initiation's flows in a single event and no other traffic, so the
// retained network's flows group into initiations by a shared StartAt, and
// an initiation completes when its last flow finishes.
func incastMetrics(r *Result) Metrics {
	flows := r.Network.Flows
	var ict metrics.Digest
	reps, finished := 0, 0
	for i := 0; i < len(flows); {
		start := flows[i].StartAt
		done := true
		var last sim.Time
		for ; i < len(flows) && flows[i].StartAt == start; i++ {
			done = done && flows[i].Done
			if flows[i].FinishAt > last {
				last = flows[i].FinishAt
			}
		}
		reps++
		if done {
			finished++
			ict.AddTime(last - start)
		}
	}
	return Metrics{
		OOORatio:    r.Report.OOORatio(),
		ICTms:       ict.Mean(),
		Initiations: reps,
		Finished:    finished,
		Violations:  len(r.Violations),
	}
}

// seedStride spaces seed offsets so derived streams stay independent.
const seedStride = 9973

// RunSpecsAveraged compiles every spec at `seeds` seed offsets (SimSeed,
// SimSeed+stride, ...), executes all runs on Parallel's workers, and returns
// per-spec averaged Metrics in input order — the generic engine behind every
// figure. Each worker takes its run's metrics and drops the Result, so a
// batch holds at most one retained network per worker. A compile error on
// any cell aborts the whole sweep: a sweep that silently skipped cells would
// render a figure with holes.
func RunSpecsAveraged(specs []spec.Spec, seeds int) ([]Metrics, error) {
	if seeds < 1 {
		seeds = 1
	}
	expanded := make([]RunConfig, 0, len(specs)*seeds)
	for i, sp := range specs {
		for k := 0; k < seeds; k++ {
			c := sp.Clone()
			c.SimSeed = sp.SimSeed + uint64(k)*seedStride
			cfg, err := Compile(c)
			if err != nil {
				return nil, fmt.Errorf("harness: spec %d: %w", i, err)
			}
			expanded = append(expanded, cfg)
		}
	}
	runs := make([]Metrics, len(expanded))
	Parallel(len(expanded), 0, func(i int) {
		runs[i] = specMetrics(specs[i/seeds], Run(expanded[i]))
	})
	out := make([]Metrics, len(specs))
	for i := range out {
		m := &out[i]
		m.Seeds = seeds
		sums := m.averaged()
		for _, one := range runs[i*seeds : (i+1)*seeds] {
			for j, v := range one.averaged() {
				*sums[j] += *v
			}
			m.Initiations += one.Initiations
			m.Finished += one.Finished
			m.Violations += one.Violations
		}
		for _, sum := range sums {
			*sum /= float64(seeds)
		}
	}
	return out, nil
}

// RunGrid expands a grid and runs its cells through RunSpecsAveraged,
// returning the cells alongside their metrics so callers can label rows.
func RunGrid(g spec.Grid) ([]spec.Spec, []Metrics, error) {
	cells, err := g.Cells()
	if err != nil {
		return nil, nil, err
	}
	ms, err := RunSpecsAveraged(cells, g.Seeds)
	if err != nil {
		return nil, nil, fmt.Errorf("grid %q: %w", g.Name, err)
	}
	return cells, ms, nil
}
