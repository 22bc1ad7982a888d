package main

import (
	"math"
	"testing"

	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/transport"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and
	// statistics.median(xs), worked by hand.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 {
		t.Errorf("quartiles reordered its input: %v", xs)
	}
}

func TestCensoredFCTCountsUnfinishedFlowsAtEndOfRun(t *testing.T) {
	ms := func(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }
	flows := []*transport.Flow{
		{StartAt: 0, FinishAt: ms(2), Done: true},
		{StartAt: ms(1), FinishAt: ms(2), Done: true},
		{StartAt: ms(4)}, // still running when the run ends at 10 ms
	}
	var d metrics.Digest
	if n := addCensoredFCT(&d, flows, ms(10)); n != 1 {
		t.Errorf("unfinished = %d, want 1", n)
	}
	// Samples 2, 1 and 6 ms: mean 3; p99 interpolates between the two
	// largest, 2 + 0.98*(6-2).
	if got := d.Mean(); math.Abs(got-3) > 1e-12 {
		t.Errorf("mean = %v, want 3", got)
	}
	if got := d.Percentile(99); math.Abs(got-5.92) > 1e-12 {
		t.Errorf("p99 = %v, want 5.92", got)
	}
	if got := d.Percentile(50); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
}
