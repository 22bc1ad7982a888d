package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// runTimeseries regenerates a Fig. 2-style time series — per-switch queue
// occupancy and PFC pause state over the run — from the motivation
// scenario's first grid cell (Fig. 3 grid: packet spraying with PFC on, the
// configuration whose queue build-up and pause propagation the paper's
// motivation section plots). The sampled series are written to path (JSONL,
// or CSV for a .csv suffix) and a short timeline summary is printed.
func runTimeseries(path string, interval time.Duration, scale harness.Scale, seed uint64) int {
	us := int(interval / time.Microsecond)
	if us < 1 {
		us = 1
	}
	fig3, err := harness.FigureByName("3")
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	cells, err := fig3.Grids(scale, seed)[0].Cells()
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	s := cells[0] // spraying with PFC on: the motivation baseline
	s.Telemetry = &spec.TelemetrySpec{SampleUs: us}
	cfg, err := harness.Compile(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	res := harness.Run(cfg)
	rec := res.Telemetry

	if err := telemetry.WriteFile(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}

	fmt.Printf("timeseries: %s @ %dus -> %s\n", s.Params(), us, path)
	fmt.Printf("recorded:   %d probes x %d samples (%d dropped) over %v\n",
		len(rec.Names), len(rec.Times), rec.Dropped, res.SimTime)
	for j, name := range rec.Names {
		switch {
		case strings.HasSuffix(name, "/shared"):
			var peak int64
			for _, v := range rec.Series[j] {
				if v > peak {
					peak = v
				}
			}
			fmt.Printf("  %-18s peak %d B\n", name, peak)
		case strings.HasSuffix(name, "/paused"):
			var ticks int64
			for _, v := range rec.Series[j] {
				ticks += v
			}
			if ticks > 0 {
				fmt.Printf("  %-18s paused %d/%d ticks\n", name, ticks, len(rec.Times))
			}
		}
	}
	return 0
}
