// Custom load balancer: RLB is a *building block* — it wraps any scheme that
// implements lb.Chooser. This example writes a deliberately naive
// "weighted-coin" balancer from scratch, runs it vanilla and with RLB
// layered on top, and shows the integration takes one struct and two
// methods.
//
//	go run ./examples/customlb
package main

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/fabric"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
)

// coinFlip sends each packet to a random path, but flips again if the first
// pick's local queue is deeper than the second's — a toy two-choices scheme.
type coinFlip struct{}

// Name implements lb.Chooser.
func (coinFlip) Name() string { return "coinflip" }

// Choose implements lb.Chooser. Honoring the exclude mask is what lets RLB
// ask for "your next-best path" when the favorite carries a PFC warning.
func (coinFlip) Choose(v lb.View, pkt *fabric.Packet, exclude lb.PathSet) int {
	n := v.NumPaths()
	pick := func() int {
		for tries := 0; tries < 8; tries++ {
			if i := v.Rng().Intn(n); !exclude.Has(i) {
				return i
			}
		}
		return v.Rng().Intn(n)
	}
	a, b := pick(), pick()
	if v.QueueBytes(b) < v.QueueBytes(a) {
		return b
	}
	return a
}

func run(withRLB bool) {
	p := topo.Default(3, 4, 4)
	p.LinkRate = 10 * units.Gbps
	p.Switch.PFCThreshold = 32 * 1000
	p.Switch.ECNKmin, p.Switch.ECNKmax = 10*1000, 40*1000
	p.LB = func() lb.Chooser { return coinFlip{} }
	label := "coinflip"
	if withRLB {
		rlb := core.DefaultParams()
		p.RLB = &rlb
		label += "+rlb"
	}
	net := topo.Build(p)

	// Hand-rolled traffic: four hosts gang up on one receiver (PFC fodder)
	// while four victims stream to distinct peers across the same fabric.
	for src := 0; src < 4; src++ {
		net.StartFlow(src, 8, 600_000) // incast into host 8 (leaf 2)
	}
	for src := 4; src < 8; src++ {
		net.StartFlow(src, src+4, 400_000) // victims: leaf 1 -> leaf 2
	}
	net.Run(30 * sim.Millisecond)
	net.StopRLB()

	var ooo, rcvd uint64
	done := 0
	for _, f := range net.Flows {
		ooo += f.OOOPkts
		rcvd += f.PktsRcvd
		if f.Done {
			done++
		}
	}
	fmt.Printf("%-14s done %d/%d  out-of-order %5.2f%%  pauses %d  recirculations %d\n",
		label, done, len(net.Flows), 100*float64(ooo)/float64(rcvd),
		net.PauseFramesSent(), net.Recirculations())
}

func main() {
	fmt.Println("a from-scratch load balancer, with and without the RLB building block:")
	fmt.Println()
	run(false)
	run(true)
}
