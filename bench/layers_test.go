package main

import (
	"testing"
)

// cannedTop is `go tool pprof -top -unit=ms` output trimmed to rows that
// exercise every folding rule. The flat column sums to 1000ms.
const cannedTop = `File: bench
Type: cpu
Time: 2026-10-16 01:46:41 UTC
Duration: 2.51s, Total samples = 1000ms (39.84%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      400ms 40.00%  github.com/rlb-project/rlb/internal/sim.(*calendarQueue).push
     100ms 10.00% 40.00%      100ms 10.00%  github.com/rlb-project/rlb/internal/sim.eventBefore (inline)
     100ms 10.00% 50.00%      100ms 10.00%  github.com/rlb-project/rlb/internal/flatmap.(*Map[go.shape.uint32,go.shape.*uint8]).Get (inline)
      50ms  5.00% 55.00%       50ms  5.00%  github.com/rlb-project/rlb/internal/flatmap.(*Map[go.shape.struct { github.com/rlb-project/rlb/internal/core.x int },go.shape.int]).Put
      50ms  5.00% 60.00%       80ms  8.00%  github.com/rlb-project/rlb/internal/transport.(*Host).Receive.func1
      40ms  4.00% 64.00%       40ms  4.00%  runtime.scanobject
      30ms  3.00% 67.00%       30ms  3.00%  runtime.(*gcBits).bitp (inline)
      20ms  2.00% 69.00%       20ms  2.00%  runtime.wbBufFlush1
      30ms  3.00% 72.00%       30ms  3.00%  runtime.mallocgcSmallScanNoHeader
      20ms  2.00% 74.00%       80ms  8.00%  runtime.growslice
      20ms  2.00% 76.00%       20ms  2.00%  runtime.duffcopy
      10ms  1.00% 77.00%       10ms  1.00%  internal/runtime/maps.(*Map).getWithKeySmall
     100ms 10.00% 87.00%      100ms 10.00%  sort.Float64s
      80ms  8.00% 95.00%       80ms  8.00%  main.runPass
      50ms  5.00%   100%       50ms  5.00%  github.com/rlb-project/rlb/internal/units.TxTime (inline)
         0     0%   100%     1000ms   100%  github.com/rlb-project/rlb/internal/harness.Run
`

func TestFoldTop(t *testing.T) {
	cpu, err := foldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim":           400, // inlined eventBefore counts toward sim
		"flatmap":       150, // generic shapes, even with slashes in the type arguments
		"transport":     50,
		"runtime.gc":    90,
		"runtime.alloc": 50,
		"runtime.other": 30,
		"other":         230, // sort, the benchmark's own main, and units (no row of its own)
	}
	for row, ms := range want {
		if cpu[row] != ms {
			t.Errorf("%s = %vms, want %vms", row, cpu[row], ms)
		}
	}
	var total float64
	for row, ms := range cpu {
		total += ms
		if _, ok := want[row]; !ok && ms != 0 {
			t.Errorf("unexpected row %s = %vms", row, ms)
		}
	}
	if total != 1000 {
		t.Errorf("rows sum to %vms, want 1000ms", total)
	}

	if _, err := foldTop("no table here\n"); err == nil {
		t.Error("output without a table header folded")
	}
	if _, err := foldTop(cannedTop + "garbage\n"); err == nil {
		t.Error("an unparseable row folded")
	}
}

func TestParseFlat(t *testing.T) {
	for in, want := range map[string]float64{"0": 0, "120ms": 120, "1.50s": 1500, "250us": 0.25} {
		got, err := parseFlat(in)
		if err != nil || got != want {
			t.Errorf("parseFlat(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
}
