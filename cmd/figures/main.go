// Command figures regenerates every figure of the paper's evaluation
// section. Each figure prints as an aligned text table; EXPERIMENTS.md
// records the measured outputs next to the paper's reported numbers.
//
// Usage:
//
//	figures [-scale bench|default|scale|paper] [-fig 3|4|6|7|8|9|10|irn|all] [-seed N]
//	figures -fig 7 -dump-spec        # the spec grids behind the figure, as JSON
//	figures -timeseries fig2.jsonl   # Fig. 2-style queue/pause timeline
//
// -dump-spec prints, instead of running anything, the declarative sweep grids
// a figure is built from together with every expanded cell spec. Any cell is
// a complete canonical experiment spec: save it to a file and `rlbsim -spec
// cell.json` replays exactly that simulation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
)

// gridDump pairs a figure's sweep grid with its expanded cells so consumers
// can replay individual cells without reimplementing axis expansion.
type gridDump struct {
	Grid  spec.Grid   `json:"grid"`
	Cells []spec.Spec `json:"cells"`
}

func dumpSpecs(figs []harness.Figure, scale harness.Scale, seed uint64) int {
	var dumps []gridDump
	for _, f := range figs {
		for _, g := range f.Grids(scale, seed) {
			cells, err := g.Cells()
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				return 2
			}
			dumps = append(dumps, gridDump{Grid: g, Cells: cells})
		}
	}
	data, err := json.MarshalIndent(dumps, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	os.Stdout.Write(append(data, '\n'))
	return 0
}

func main() {
	var scaleNames, figNames []string
	for _, s := range harness.Scales {
		scaleNames = append(scaleNames, s.Name)
	}
	for _, f := range harness.Figures {
		figNames = append(figNames, f.Name)
	}
	scaleName := flag.String("scale", "default", "fabric scale: "+strings.Join(scaleNames, ", "))
	fig := flag.String("fig", "all", "figure to regenerate: "+strings.Join(figNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	dumpSpec := flag.Bool("dump-spec", false, "print the figure's spec grids and expanded cells as JSON and exit without running")
	timeseries := flag.String("timeseries", "", "write a Fig. 2-style queue/pause time series (JSONL, or CSV with a .csv suffix) to this file and exit")
	sampleInterval := flag.Duration("sample-interval", 10*time.Microsecond, "telemetry sampling interval for -timeseries (min 1us)")
	flag.Parse()

	scale, err := harness.ScaleByName(*scaleName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}
	figs := harness.Figures
	if *fig != "all" {
		f, err := harness.FigureByName(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(2)
		}
		figs = []harness.Figure{f}
	}

	if *dumpSpec {
		os.Exit(dumpSpecs(figs, scale, *seed))
	}
	if *timeseries != "" {
		os.Exit(runTimeseries(*timeseries, *sampleInterval, scale, *seed))
	}

	start := time.Now()
	for _, f := range figs {
		tables, err := f.Tables(scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			os.Exit(1)
		}
		for _, t := range tables {
			if *csv {
				fmt.Println(t.CSV())
			} else {
				fmt.Println(t)
			}
		}
	}
	fmt.Printf("done: scale=%s figs=%s wall=%s\n", scale.Name, strings.TrimSpace(*fig), time.Since(start).Round(time.Millisecond))
}
