package main

import (
	"sort"

	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/transport"
)

// quartiles returns the first quartile, the median and the third quartile of
// xs. The quartiles follow the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), so a spread printed here matches one
// computed from the same values in Python.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med = s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return q(1), med, q(3)
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// addCensoredFCT adds every flow's completion time in ms to d and returns how
// many flows had not finished. An unfinished flow counts as finishing at end,
// the end of the run, so a change cannot improve the mean or the tail by
// leaving slow flows unfinished.
func addCensoredFCT(d *metrics.Digest, flows []*transport.Flow, end sim.Time) (unfinished int) {
	for _, f := range flows {
		finish := f.FinishAt
		if !f.Done {
			finish = end
			unfinished++
		}
		d.Add((finish - f.StartAt).Millis())
	}
	return unfinished
}
