// Incast: many servers answer one client simultaneously (the §4.3 scenario).
// The burst pauses fabric ports via PFC; the example compares how a vanilla
// per-packet load balancer and its RLB-enhanced version ride it out.
//
//	go run ./examples/incast
package main

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/core"
	"github.com/rlb-project/rlb/internal/lb"
	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/sim"
	"github.com/rlb-project/rlb/internal/topo"
	"github.com/rlb-project/rlb/internal/units"
	"github.com/rlb-project/rlb/internal/workload"
)

func run(withRLB bool) (*metrics.FlowReport, sim.Time, uint64) {
	p := topo.Default(3, 4, 4) // 12 hosts
	p.LinkRate = 10 * units.Gbps
	p.Switch.PFCThreshold = 32 * 1000 // scaled to the 10 Gb/s links
	p.Switch.ECNKmin = 10 * 1000
	p.Switch.ECNKmax = 40 * 1000
	p.LB = lb.NewDRILL(2, 1)
	if withRLB {
		rlb := core.DefaultParams()
		p.RLB = &rlb
	}
	net := topo.Build(p)

	// Client host 0; 8 servers spread over the other leaves respond with
	// 2 MB total, split evenly — a degree-8 incast.
	servers := []int{4, 5, 6, 7, 8, 9, 10, 11}
	workload.Incast(net.Starter(), 0, servers, 2_000_000)

	net.Run(30 * sim.Millisecond)
	net.StopRLB()

	var last sim.Time
	for _, f := range net.Flows {
		if f.FinishAt > last {
			last = f.FinishAt
		}
	}
	return metrics.BuildFlowReport(net.Flows), last, net.PauseFramesSent()
}

func main() {
	for _, mode := range []struct {
		name    string
		withRLB bool
	}{{"drill", false}, {"drill+rlb", true}} {
		rep, ict, pauses := run(mode.withRLB)
		fmt.Printf("%-10s incast completion %-9v  out-of-order %5.2f%%  retx %5.2f%%  pauses %d\n",
			mode.name, ict, 100*rep.OOORatio(), 100*rep.RetxRatio(), pauses)
	}
	fmt.Println("\nRLB steers responses off the paths PFC is about to pause,")
	fmt.Println("so fewer packets are discarded by go-back-N at the client NIC.")
}
