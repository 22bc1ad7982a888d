package main

import (
	"context"
	"math"
	"testing"

	"github.com/rlb-project/rlb/internal/harness"
)

func TestWorkloadsDecodeStrictlyAndCompile(t *testing.T) {
	names := workloadNames()
	if len(names) == 0 {
		t.Fatal("no committed workloads")
	}
	for _, name := range names {
		data, err := workloadData(name)
		if err != nil {
			t.Fatal(err)
		}
		cases, err := expand(data, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seeds := map[uint64]bool{}
		for _, c := range cases {
			if _, err := harness.Compile(c.Spec); err != nil {
				t.Errorf("%s: %s: %v", name, c.Spec.Params(), err)
			}
			if seeds[c.Spec.SimSeed] {
				t.Errorf("%s: two simulations share seed %d", name, c.Spec.SimSeed)
			}
			seeds[c.Spec.SimSeed] = true
		}
	}
	if _, err := expand([]byte(`[{"name": "g", "base": {"simSeed": 1, "typo": 1}}]`), 1); err == nil {
		t.Error("a grid with an unknown field decoded")
	}
}

// smokeGrid is one motivation cell: a two-leaf fabric run for 3 ms.
const smokeGrid = `[{"name": "smoke", "base": {
	"simSeed": 1, "linkGbps": 10, "linkDelayNs": 2000, "scheme": "drill",
	"maxFlowKB": 2000, "durationUs": 1000, "drainUs": 2000,
	"motiv": {"spines": 4, "hosts": 4, "sprayPaths": 2, "bursts": 1}}}]`

func TestMeasureSmoke(t *testing.T) {
	rec, err := measure(context.Background(), "smoke", []byte(smokeGrid), 1, 0, true, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Attempted != 2 || rec.Failed != 0 || rec.Sims != 1 || rec.Flows == 0 {
		t.Fatalf("record: correct=%v attempted=%d failed=%d sims=%d flows=%d, failures %v",
			rec.Correct, rec.Attempted, rec.Failed, rec.Sims, rec.Flows, rec.Failures)
	}
	for _, d := range endToEnd {
		if v := rec.Metrics[d.Name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", d.Name, v)
		}
	}
	var cpu float64
	for _, row := range cpuRows() {
		cpu += rec.Layers[cpuMetricName(row)].Value
	}
	// A short profile may hold no samples at all; otherwise the rows
	// partition it.
	if cpu != 0 && math.Abs(cpu-100) > 1e-6 {
		t.Errorf("cpu_pct rows sum to %v, want 100", cpu)
	}
	if rec.Layers["sim.events"].Value == 0 || rec.Layers["fabric.frames_tx"].Value == 0 {
		t.Errorf("layer counts missing: %v", rec.Layers)
	}
	if len(rec.Spans) != 4 {
		t.Errorf("traced pass recorded %d spans, want decode, compile, build and run", len(rec.Spans))
	}
}
