// Quickstart: build a small lossless leaf-spine fabric, run a handful of
// RDMA-style flows under DRILL with RLB on top, and print what happened.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
)

func main() {
	// A 2x4 leaf-spine fabric: 2 leaves, 4 spines (4 equal-cost paths
	// between any two leaves), 4 hosts per leaf, 10 Gb/s links, PFC and
	// DCQCN on — the lossless datacenter setting of the paper.
	p := topo.Default(2, 4, 4)
	p.LinkRate = 10 * units.Gbps

	// Base load balancer: DRILL (per-packet, power-of-two-choices).
	p.LB = lb.NewDRILL(2, 1)

	// Layer RLB on top: predictors on every switch differentiate ingress
	// queues and send PFC warnings upstream; leaf agents apply Algorithm 1.
	rlb := core.DefaultParams()
	p.RLB = &rlb

	net := topo.Build(p)

	// Start a few transfers: hosts 0..3 live on leaf 0, hosts 4..7 on
	// leaf 1, so these flows cross the spine layer.
	f1 := net.StartFlow(0, 4, 2_000_000) // 2 MB
	f2 := net.StartFlow(1, 5, 500_000)
	f3 := net.StartFlow(2, 4, 1_000_000) // same receiver as f1: contention

	net.Run(20 * sim.Millisecond)
	net.StopRLB()

	fmt.Println("flow  size      done  FCT        retrans  out-of-order")
	for i, f := range net.Flows {
		fmt.Printf("f%d    %-8d  %-5v %-10v %-8d %d\n",
			i+1, f.Size, f.Done, f.FCT(), f.Retrans, f.OOOPkts)
	}
	fmt.Printf("\nPFC PAUSE frames: %d, drops: %d (lossless!)\n",
		net.PauseFramesSent(), net.Drops())
	fmt.Printf("RLB recirculations: %d\n", net.Recirculations())
	for i, a := range net.Agents {
		if a != nil && a.Stats.WarningsRcvd > 0 {
			fmt.Printf("leaf %d accepted %d PFC warnings\n", i, a.Stats.WarningsRcvd)
		}
	}
	_ = f1
	_ = f2
	_ = f3
}
