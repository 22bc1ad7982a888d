package core

import (
	"testing"

	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/units"
)

// TestWarningThresholdRange pins §3.2.3's conservative Qth range
// [d·C, QPFC − d·C·(n−1)) against hand-computed values, including the
// degenerate fabrics where the range collapses.
func TestWarningThresholdRange(t *testing.T) {
	cases := []struct {
		name   string
		d      sim.Time
		c      units.Bandwidth
		qPFC   int
		n      int
		lo, hi int
	}{
		// Paper settings: d=2us, C=40G -> d*C = 10000 bytes.
		{"paper-n2", 2 * sim.Microsecond, 40 * units.Gbps, 256000, 2, 10000, 246000},
		// n=1: no other senders, the whole headroom above d*C is usable.
		{"paper-n1", 2 * sim.Microsecond, 40 * units.Gbps, 256000, 1, 10000, 256000},
		// Heavier assumed fan-in eats the top of the range.
		{"paper-n4", 2 * sim.Microsecond, 40 * units.Gbps, 256000, 4, 10000, 226000},
		// Reduced-rate fabric: the paper's 256 KB QPFC at a quarter of the rate.
		{"10g-n2", 2 * sim.Microsecond, 10 * units.Gbps, 64000, 2, 2500, 61500},
		// Longer links push both ends of the range.
		{"slow-link-n2", 8 * sim.Microsecond, 10 * units.Gbps, 64000, 2, 10000, 54000},
		// Degenerate: QPFC too small for the link's bandwidth-delay product,
		// the range collapses (hi < lo) and Qth falls back to lo.
		{"collapsed", 2 * sim.Microsecond, 40 * units.Gbps, 15000, 2, 10000, 5000},
		// Exactly collapsed: hi == lo.
		{"exactly-collapsed", 2 * sim.Microsecond, 40 * units.Gbps, 20000, 2, 10000, 10000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi := WarningThresholdRange(tc.d, tc.c, tc.qPFC, tc.n)
			if lo != tc.lo || hi != tc.hi {
				t.Fatalf("range = [%d, %d), want [%d, %d)", lo, hi, tc.lo, tc.hi)
			}
		})
	}
}

// TestQthClamping drives Params.Qth across the fraction sweep of Fig. 10(a)
// and the edges of the conservative range. All cases use d=2us, C=10G
// (d*C = 2500) against QPFC=40000, so for n=2: lo=2500, hi=37500.
func TestQthClamping(t *testing.T) {
	const qPFC = 40000
	d, c := 2*sim.Microsecond, 10*units.Gbps
	cases := []struct {
		name     string
		fraction float64
		qPFC     int
		want     int
	}{
		{"mid-range", 0.3, qPFC, 12000},
		// 0.0625 * 40000 = 2500 = lo exactly: in range, kept as-is.
		{"at-lo", 0.0625, qPFC, 2500},
		{"below-lo-clamps-up", 0.01, qPFC, 2500},
		// 0.9375 * 40000 = 37500 = hi exactly: half-open range, so hi-1.
		{"at-hi-clamps-down", 0.9375, qPFC, 37499},
		{"above-hi-clamps-down", 0.99, qPFC, 37499},
		// Just under hi passes through unclamped (0.93 * 40000 = 37200).
		{"just-under-hi", 0.93, qPFC, 37200},
		// Collapsed range (hi <= lo): only the lower clamp applies; the
		// predictor degrades to warning at the bandwidth-delay product.
		{"collapsed-range", 0.3, 4000, 2500},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Params{QthFraction: tc.fraction}
			if got := p.Qth(tc.qPFC, d, c); got != tc.want {
				t.Fatalf("Qth(%d, fraction=%v) = %d, want %d", tc.qPFC, tc.fraction, got, tc.want)
			}
		})
	}
}

// TestPredictWarn tables the per-sample warn decision (predictWarn, the pure
// core of Predictor.sample) across its boundaries: the activation threshold,
// the remaining-time equality, non-growing queues, and pause refresh.
// Fixed frame: qPFC=64000, qth=16000, deltaT=2us,
// warnTime=5us, so the derivative branch warns iff
// (64000-q)*2us/deriv <= 5us.
func TestPredictWarn(t *testing.T) {
	const (
		qPFC = 64000
		qth  = 16000
	)
	deltaT, warnTime := 2*sim.Microsecond, 5*sim.Microsecond
	cases := []struct {
		name     string
		q, deriv int
		paused   bool
		want     warnCause
	}{
		// Below qth nothing fires, however steep the growth: prediction only
		// activates once the queue shows sustained congestion.
		{"below-qth-huge-deriv", qth - 1, 1 << 20, false, warnNone},
		// At qth with growth fast enough to cross within warnTime:
		// (64000-16000)*2/19200 = 5us exactly; <= is inclusive.
		{"remaining-equals-warntime", qth, 19200, false, warnPredicted},
		// One byte/deltaT slower leaves remaining just above warnTime.
		{"remaining-just-over", qth, 19199, false, warnNone},
		// Faster growth predicts comfortably.
		{"fast-growth", 32000, 32000, false, warnPredicted},
		// (64000-32000)*2/12800 = 5us exactly at the halfway queue.
		{"halfway-boundary", 32000, 12800, false, warnPredicted},
		{"halfway-just-over", 32000, 12799, false, warnNone},
		// Zero or draining derivative never predicts, even near qPFC.
		{"steady-queue", qPFC - 1, 0, false, warnNone},
		{"draining-queue", qPFC - 1, -4000, false, warnNone},
		// At or above qPFC with any growth: remaining <= 0, warn.
		{"at-qpfc", qPFC, 1, false, warnPredicted},
		// An active pause refreshes the warning regardless of growth.
		{"paused-refresh", qth, -4000, true, warnStatic},
		// ... but only above the activation threshold.
		{"paused-below-qth", qth - 1, -4000, true, warnNone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := predictWarn(tc.q, tc.deriv, qPFC, qth, deltaT, warnTime, tc.paused)
			if got != tc.want {
				t.Fatalf("predictWarn(q=%d, deriv=%d, paused=%v) = %v, want %v",
					tc.q, tc.deriv, tc.paused, got, tc.want)
			}
		})
	}
}
