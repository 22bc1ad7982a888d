package main

import (
	"math"
	"time"
)

// The benchmark's reference machine is a shared host. Other tenants' load
// can slow it by up to 2x for minutes at a time, and the guest kernel sees
// none of it as steal time. Two fixed loops, timed between simulations,
// slow down with it: a pointer chase that waits on memory, as the
// simulator's packet, port and event structures do, and an arithmetic loop
// that measures the core alone. The geometric mean of their steps tracked
// the simulator's speed best. On that host it cut the pass-to-pass scatter
// of events/s in a noisy hour from 8–18% to 4–8%; the chase alone reached
// 7–10%. So host times are reported at the reference speed: each pass's
// measured time × refStepNs ÷ the mean calibration step during that pass.
// The record keeps each pass's step, from which the raw times follow.

// refStepNs is the calibration step on the reference machine (an Intel
// Xeon with 2 vCPUs) when the host is quiet.
const refStepNs = 11.5

// chaseSteps and aluSteps make each loop about 10 ms on the reference
// machine.
const (
	chaseSteps = 160_000
	aluSteps   = 4_500_000
)

// calEvery is the least host time between two samples taken before
// simulations. The slowdowns it tracks last seconds, so sampling more often
// than this buys little, and it keeps sampling under ~5% of a pass.
const calEvery = 500 * time.Millisecond

// chaseCycle is one random cycle through 4 MB: a walk along it misses the
// private caches on most steps.
var chaseCycle = func() []uint32 {
	const n = 1 << 20
	c := make([]uint32, n)
	for i := range c {
		c[i] = uint32(i)
	}
	// Sattolo's shuffle with a fixed xorshift stream yields one cycle
	// through every entry, the same on every run.
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		c[i], c[j] = c[j], c[i]
	}
	return c
}()

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calSink keeps the loops' results live so the compiler cannot drop them.
var calSink uint64

// calibrate times both loops and returns the geometric mean of their steps
// in ns.
func calibrate() float64 {
	start := time.Now()
	i := uint32(0)
	var h uint64
	for k := 0; k < chaseSteps; k++ {
		i = chaseCycle[i]
		h = h*31 + uint64(i)
		if h&3 == 0 {
			h ^= h >> 7
		}
	}
	chase := float64(time.Since(start).Nanoseconds()) / chaseSteps

	start = time.Now()
	x := uint64(88172645463325252)
	for k := 0; k < aluSteps; k++ {
		x = xorshift(x)
		if x&3 == 0 {
			h += x
		}
	}
	alu := float64(time.Since(start).Nanoseconds()) / aluSteps

	calSink = h
	return math.Sqrt(chase * alu)
}
