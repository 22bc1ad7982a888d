// Motivation (Fig. 2 / §2.2): two leaf switches joined by many equal-cost
// paths; background flows share the fabric with line-rate bursts and a long
// congested flow. With PFC enabled the bursts pause the parallel paths, and
// PFC-oblivious load balancers reorder packets badly; the same scenario with
// PFC disabled (lossy) shows how much of the damage PFC itself causes.
//
//	go run ./examples/motivation
package main

import (
	"fmt"
	"os"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
)

func main() {
	// One motivation-kind cell per scheme x PFC setting: 8 parallel paths,
	// 10 background pairs, the congested flow sprayed over 5 paths, 2 burst
	// waves, all at seed 42. The Motiv block derives the two-leaf topology.
	cells, results, err := harness.RunGrid(spec.Grid{
		Name: "motivation",
		Base: spec.Spec{
			SimSeed: 42, LinkGbps: 10, MaxFlowKB: 2000,
			DurationUs: 3000, DrainUs: 9000,
			Motiv: &spec.MotivSpec{Spines: 8, Hosts: 10, SprayPaths: 5, Bursts: 2},
		},
		Axes: []spec.Axis{
			{Field: "scheme", Strs: []string{"presto", "letflow", "hermes", "drill"}},
			{Field: "pfcOff", Ints: []int{0, 1}},
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "motivation:", err)
		os.Exit(1)
	}

	fmt.Println("Fig. 2 scenario: 8 parallel paths, 10 background pairs, bursts + 1 elephant")
	fmt.Println()
	fmt.Printf("%-8s %-4s %10s %10s %10s %10s\n",
		"scheme", "pfc", "pauses/ms", "p99 OOD", "afct(ms)", "p99(ms)")
	for i, c := range cells {
		m := results[i]
		onOff := "on"
		if c.PFCOff {
			onOff = "off"
		}
		fmt.Printf("%-8s %-4s %10.1f %10.0f %10.3f %10.3f\n",
			c.Scheme, onOff, m.PauseRate, m.OODp99, m.AFCT, m.P99)
	}
	fmt.Println("\nPFC pausing inflates out-of-order degree and tail FCT for every")
	fmt.Println("PFC-oblivious scheme — the problem RLB's prediction removes.")
}
