// Package workload generates the paper's traffic: flows with empirical size
// distributions from four production workloads (Web Server, Cache Follower,
// Web Search, Data Mining), Poisson arrival processes at a target load,
// incast request/response patterns, and the burst scenario of Fig. 2.
package workload

import (
	"fmt"
	"sort"
	"strings"

	"github.com/rlb-project/rlb/internal/rng"
)

// SizeDist is a piecewise-linear empirical CDF over flow sizes in bytes,
// the standard encoding used by NS-3 evaluation scripts.
type SizeDist struct {
	// Name labels the workload.
	Name string
	// Sizes and Probs are the CDF knots: P(size <= Sizes[i]) = Probs[i].
	// Probs must be non-decreasing and end at 1.
	Sizes []int
	Probs []float64
}

// Validate checks the CDF invariants.
func (d *SizeDist) Validate() error {
	if len(d.Sizes) != len(d.Probs) || len(d.Sizes) < 2 {
		return fmt.Errorf("workload %s: need >= 2 matching knots", d.Name)
	}
	for i := 1; i < len(d.Sizes); i++ {
		if d.Sizes[i] <= d.Sizes[i-1] {
			return fmt.Errorf("workload %s: sizes not increasing at %d", d.Name, i)
		}
		if d.Probs[i] < d.Probs[i-1] {
			return fmt.Errorf("workload %s: probs decreasing at %d", d.Name, i)
		}
	}
	if d.Probs[len(d.Probs)-1] != 1 {
		return fmt.Errorf("workload %s: CDF does not end at 1", d.Name)
	}
	return nil
}

// Sample draws one flow size.
func (d *SizeDist) Sample(r *rng.Source) int {
	u := r.Float64()
	i := sort.SearchFloat64s(d.Probs, u)
	if i == 0 {
		return d.Sizes[0]
	}
	if i >= len(d.Probs) {
		return d.Sizes[len(d.Sizes)-1]
	}
	p0, p1 := d.Probs[i-1], d.Probs[i]
	s0, s1 := d.Sizes[i-1], d.Sizes[i]
	if p1 == p0 {
		return s1
	}
	frac := (u - p0) / (p1 - p0)
	return s0 + int(frac*float64(s1-s0))
}

// Mean returns the distribution's expected flow size in bytes.
func (d *SizeDist) Mean() float64 {
	mean := d.Probs[0] * float64(d.Sizes[0])
	for i := 1; i < len(d.Sizes); i++ {
		mean += (d.Probs[i] - d.Probs[i-1]) * float64(d.Sizes[i-1]+d.Sizes[i]) / 2
	}
	return mean
}

// MaxSize returns the largest possible flow.
func (d *SizeDist) MaxSize() int { return d.Sizes[len(d.Sizes)-1] }

// MeanCapped returns E[min(size, cap)] — the effective mean when flows are
// truncated at cap bytes (scaled-down runs cap elephants; load calibration
// must use this mean or heavy-tailed workloads run far below nominal load).
func (d *SizeDist) MeanCapped(cap int) float64 {
	if cap <= 0 || cap >= d.MaxSize() {
		return d.Mean()
	}
	mean := d.Probs[0] * float64(min(d.Sizes[0], cap))
	for i := 1; i < len(d.Sizes); i++ {
		dp := d.Probs[i] - d.Probs[i-1]
		lo, hi := d.Sizes[i-1], d.Sizes[i]
		switch {
		case hi <= cap:
			mean += dp * float64(lo+hi) / 2
		case lo >= cap:
			mean += dp * float64(cap)
		default:
			// The segment straddles the cap: below-cap part contributes its
			// own average, the rest contributes cap.
			fracBelow := float64(cap-lo) / float64(hi-lo)
			mean += dp * fracBelow * float64(lo+cap) / 2
			mean += dp * (1 - fracBelow) * float64(cap)
		}
	}
	return mean
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// FracBelow returns P(size <= s).
func (d *SizeDist) FracBelow(s int) float64 {
	if s <= d.Sizes[0] {
		return d.Probs[0]
	}
	for i := 1; i < len(d.Sizes); i++ {
		if s <= d.Sizes[i] {
			frac := float64(s-d.Sizes[i-1]) / float64(d.Sizes[i]-d.Sizes[i-1])
			return d.Probs[i-1] + frac*(d.Probs[i]-d.Probs[i-1])
		}
	}
	return 1
}

// The four realistic workloads of §4 ("Realistic workloads"). The knots
// follow the distributions the paper cites: Web Search from the DCTCP
// measurement (mean ≈ 1.6 MB, as the paper's motivation experiment states),
// Data Mining from VL2 (83% of flows under 100 KB with a very heavy tail),
// Web Server and Cache Follower from the Facebook traces used by Hermes
// (Web Server entirely under 1 MB).

// WebSearch returns the DCTCP web-search flow-size distribution.
func WebSearch() *SizeDist {
	return &SizeDist{
		Name:  "websearch",
		Sizes: []int{1000, 6000, 13000, 19000, 33000, 53000, 133000, 667000, 1467000, 3333000, 6667000, 20000000},
		Probs: []float64{0, 0.15, 0.2, 0.3, 0.4, 0.53, 0.6, 0.7, 0.8, 0.9, 0.97, 1},
	}
}

// DataMining returns the VL2 data-mining flow-size distribution.
func DataMining() *SizeDist {
	return &SizeDist{
		Name:  "datamining",
		Sizes: []int{100, 180, 250, 560, 900, 1100, 1870, 3160, 10000, 80000, 400000, 3160000, 35000000, 150000000, 1000000000},
		Probs: []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.98, 0.995, 1},
	}
}

// WebServer returns the Facebook web-server flow-size distribution (all
// flows below 1 MB).
func WebServer() *SizeDist {
	return &SizeDist{
		Name:  "webserver",
		Sizes: []int{100, 300, 1000, 2000, 10000, 40000, 100000, 300000, 600000, 1000000},
		Probs: []float64{0, 0.3, 0.5, 0.6, 0.7, 0.8, 0.88, 0.95, 0.98, 1},
	}
}

// CacheFollower returns the Facebook cache-follower flow-size distribution.
func CacheFollower() *SizeDist {
	return &SizeDist{
		Name:  "cachefollower",
		Sizes: []int{100, 400, 1000, 3000, 10000, 50000, 200000, 1000000, 5000000, 10000000},
		Probs: []float64{0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.97, 1},
	}
}

// ByName returns a workload by its canonical name.
func ByName(name string) (*SizeDist, error) {
	for _, d := range All() {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown distribution %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// All returns the four paper workloads in presentation order.
func All() []*SizeDist {
	return []*SizeDist{WebServer(), CacheFollower(), WebSearch(), DataMining()}
}

// Names returns the valid distribution names in presentation order (the same
// order as All). Order is part of the scenario fuzz-corpus format: the
// generator indexes into this list, so reordering would silently
// re-interpret committed corpus entries.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, d := range all {
		names[i] = d.Name
	}
	return names
}
