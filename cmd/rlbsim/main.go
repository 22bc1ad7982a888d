// Command rlbsim runs one simulation scenario and prints its metrics — the
// quick way to poke at a configuration without the full figure harness.
//
// The scenario is a canonical experiment spec (internal/spec): flags build
// one, `-spec file.json` loads one, and flags given alongside `-spec` overlay
// the file field by field. `-dump-spec` prints the effective spec instead of
// running it, so any invocation can be frozen to a replayable JSON document:
//
//	rlbsim -scheme drill -workload websearch -load 0.6
//	rlbsim -scheme drill+rlb -load 0.4 -asym -dump-spec > exp.json
//	rlbsim -spec exp.json -load 0.6          # same spec, one knob changed
//	rlbsim -scheme ecmp -kill 2 -kill-at 1ms -restore-at 3ms -strict
//	rlbsim -telemetry out.jsonl -sample-interval 10us
//	rlbsim -scheme conga+rlb -trace 20
//	rlbsim -repro /tmp/rlb-repro-flows-complete.json
//
// `-trace N` prints the last N control-plane events (PFC pauses, drops,
// recirculations, CNM warnings) from the run's telemetry event log, turning
// telemetry on at the default sampling interval when -telemetry is not given.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/metrics"
	"github.com/rlb-project/rlb/internal/scenario"
	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// scenarioFlags are the flags that shape the scenario itself (as opposed to
// observation/profiling knobs). They conflict with -repro, which replays a
// recorded spec verbatim: silently ignoring them would run a different
// scenario than the user asked for.
var scenarioFlags = map[string]bool{
	"scheme": true, "workload": true, "load": true, "leaves": true,
	"spines": true, "hosts": true, "gbps": true, "duration": true,
	"drain": true, "asym": true, "cap": true, "seed": true, "seeds": true,
	"noguard": true, "norecirc": true, "probe": true, "kill": true,
	"kill-at": true, "restore-at": true, "strict": true, "spec": true,
}

func main() {
	scheme := flag.String("scheme", "drill+rlb", "load balancer: ecmp|presto|letflow|hermes|drill|conga, optionally +rlb")
	wl := flag.String("workload", "websearch", "workload: webserver|cachefollower|websearch|datamining")
	load := flag.Float64("load", 0.5, "offered load fraction of host line rate")
	leaves := flag.Int("leaves", 4, "number of leaf switches")
	spines := flag.Int("spines", 6, "number of spine switches")
	hosts := flag.Int("hosts", 6, "hosts per leaf")
	gbps := flag.Int("gbps", 10, "link rate in Gb/s")
	duration := flag.Duration("duration", 5*time.Millisecond, "traffic generation window")
	drain := flag.Duration("drain", 15*time.Millisecond, "extra drain time after generation stops")
	asym := flag.Bool("asym", false, "downgrade 20% of leaf-spine links to quarter rate")
	capBytes := flag.Int("cap", 5_000_000, "max flow size in bytes (0 = uncapped)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	seeds := flag.Int("seeds", 1, "number of seeds to run and average")
	noGuard := flag.Bool("noguard", false, "RLB ablation: disable the flow-order guard")
	noRecirc := flag.Bool("norecirc", false, "RLB ablation: disable packet recirculation")
	traceN := flag.Int("trace", 0, "print the last N control-plane events from the telemetry event log")
	telemetryOut := flag.String("telemetry", "", "sample run-time telemetry and write the series to this file (JSONL; a .csv suffix writes CSV)")
	sampleInterval := flag.Duration("sample-interval", 10*time.Microsecond, "telemetry sampling interval (with -telemetry)")
	probe := flag.Duration("probe", 0, "use in-band probe telemetry at this interval instead of oracle path state (0 = oracle)")
	kill := flag.Int("kill", 0, "fault plane: kill this many of leaf 0's spine uplinks")
	killAt := flag.Duration("kill-at", time.Millisecond, "fault plane: when to kill the links")
	restoreAt := flag.Duration("restore-at", 0, "fault plane: when to restore them (0 = never)")
	strict := flag.Bool("strict", false, "enable the strict invariant-checker tier")
	specPath := flag.String("spec", "", "load the scenario from this canonical spec JSON file; other flags overlay it")
	dumpSpec := flag.Bool("dump-spec", false, "print the effective spec as canonical JSON and exit without running")
	fingerprint := flag.Bool("fingerprint", false, "print the run's determinism fingerprint (single-seed runs)")
	repro := flag.String("repro", "", "replay a scenario-fuzzer repro file (exit 1 if it still fails)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	visited := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { visited[f.Name] = true })

	if *repro != "" {
		var conflicts []string
		for name := range visited {
			if name != "repro" && scenarioFlags[name] {
				conflicts = append(conflicts, "-"+name)
			}
		}
		if len(conflicts) > 0 {
			sort.Strings(conflicts)
			fmt.Fprintf(os.Stderr, "rlbsim: -repro replays the recorded scenario verbatim; drop the conflicting scenario flag(s): %s\n",
				strings.Join(conflicts, ", "))
			os.Exit(2)
		}
		os.Exit(runRepro(*repro))
	}

	// Build the effective spec: flag defaults (or the -spec file when given)
	// overlaid with every flag the user set explicitly.
	var s spec.Spec
	if *specPath != "" {
		data, err := os.ReadFile(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlbsim:", err)
			os.Exit(2)
		}
		s, err = spec.Decode(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlbsim:", err)
			os.Exit(2)
		}
	}
	set := func(name string) bool { return *specPath == "" || visited[name] }
	if set("scheme") {
		s.Scheme = *scheme
	}
	if set("workload") {
		s.Workload = *wl
	}
	if set("load") {
		s.LoadPct = int(math.Round(*load * 100))
	}
	if set("leaves") {
		s.Leaves = *leaves
	}
	if set("spines") {
		s.Spines = *spines
	}
	if set("hosts") {
		s.HostsPerLeaf = *hosts
	}
	if set("gbps") {
		s.LinkGbps = *gbps
	}
	if set("duration") {
		s.DurationUs = int(*duration / time.Microsecond)
	}
	if set("drain") {
		s.DrainUs = int(*drain / time.Microsecond)
	}
	if set("asym") {
		if *asym {
			s.AsymPct = 20
		} else {
			s.AsymPct = 0
		}
	}
	if set("cap") {
		s.MaxFlowKB = *capBytes / 1000
	}
	if set("seed") {
		s.SimSeed = *seed
	}
	if set("seeds") {
		s.Seeds = *seeds
	}
	if visited["noguard"] {
		s.NoOrderGuard = *noGuard
	}
	if visited["norecirc"] {
		s.NoRecirc = *noRecirc
	}
	if visited["probe"] {
		s.ProbeUs = int(*probe / time.Microsecond)
	}
	if visited["strict"] {
		s.Strict = *strict
	}
	if visited["telemetry"] || visited["sample-interval"] {
		s.Telemetry = &spec.TelemetrySpec{SampleUs: max(1, int(*sampleInterval/time.Microsecond))}
	}
	if set("kill") {
		if *kill > s.Spines {
			fmt.Fprintf(os.Stderr, "rlbsim: -kill %d exceeds %d spines\n", *kill, s.Spines)
			os.Exit(2)
		}
		s.Faults = nil
		for i := 0; i < *kill; i++ {
			s.Faults = append(s.Faults, spec.FaultSpec{
				Leaf: 0, Spine: i,
				DownAtUs: int(*killAt / time.Microsecond),
				UpAtUs:   int(*restoreAt / time.Microsecond),
			})
		}
	}

	if *dumpSpec {
		data, err := spec.Encode(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlbsim:", err)
			os.Exit(2)
		}
		os.Stdout.Write(data)
		return
	}

	nSeeds := max(1, s.Seeds)
	if nSeeds > 1 && (*telemetryOut != "" || *traceN > 0) {
		fmt.Fprintln(os.Stderr, "rlbsim: -telemetry and -trace record one run; use -seeds 1")
		os.Exit(2)
	}
	if *traceN > 0 && s.Telemetry == nil {
		// The event log rides on telemetry: sample at the default interval.
		s.Telemetry = &spec.TelemetrySpec{SampleUs: int(*sampleInterval / time.Microsecond)}
	}

	// Compile once up front so registry errors (unknown scheme or workload,
	// each listing the valid names) and out-of-range shapes surface before
	// any profiling starts or simulations run.
	cfg, err := harness.Compile(s)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlbsim:", err)
		os.Exit(2)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rlbsim:", err)
			os.Exit(2)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rlbsim:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rlbsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows retained heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rlbsim:", err)
			}
		}()
	}

	if nSeeds > 1 {
		printAveraged(s, nSeeds)
		return
	}

	if *fingerprint {
		cfg.KeepNetwork = true
	}

	res := harness.Run(cfg)
	r := res.Report
	asymLabel := ""
	if s.AsymPct > 0 {
		asymLabel = " (asym)"
	}
	fmt.Printf("scheme=%s workload=%s load=%.2f fabric=%dx%d/%d @%s%s\n",
		s.Scheme, s.Workload, float64(s.LoadPct)/100, s.Leaves, s.Spines, s.HostsPerLeaf,
		cfg.Topo.LinkRate, asymLabel)
	fmt.Printf("flows:      %d generated, %d completed\n", r.Flows, r.Completed)
	fmt.Printf("fct:        %s\n", r.FCT.Summary("ms"))
	fmt.Printf("small fct:  %s\n", r.SmallFCT.Summary("ms"))
	fmt.Printf("large fct:  %s\n", r.LargeFCT.Summary("ms"))
	fmt.Printf("reordering: %.3f%% of %d received frames; p99 OOD %.0f pkts\n",
		100*r.OOORatio(), r.TotalRcvd, r.OOD.Percentile(99))
	fmt.Printf("retx:       %.3f%% of %d sent frames\n", 100*r.RetxRatio(), r.TotalSent)
	fmt.Printf("pfc:        %d PAUSE frames (%.1f/ms), %d drops\n",
		res.Pauses, metrics.PauseRate(res.Pauses, res.SimTime), res.Drops)
	if len(s.Faults) > 0 || s.Strict {
		fmt.Printf("faults:     %d fault windows, %d frames lost on the wire\n", len(s.Faults), res.WireLost)
	}
	if len(res.Violations) > 0 {
		fmt.Printf("INVARIANT VIOLATIONS (%d, of %d checks):\n", len(res.Violations), res.InvariantChecks)
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
		}
	} else if s.Strict {
		fmt.Printf("invariants: ok (%d checks, strict)\n", res.InvariantChecks)
	}
	fmt.Printf("rlb:        %d warnings accepted, %d recirculations\n", res.Agents.WarningsRcvd, res.Recircs)
	if res.Agents.PicksTotal > 0 {
		a := res.Agents
		fmt.Printf("rlb picks:  %d total, %d warned, %d reroutes, %d recircs (+%d order, %d sticky), %d orderstay, %d staycheap, %d fallback\n",
			a.PicksTotal, a.PicksWarned, a.Reroutes, a.Recircs, a.OrderRecircs, a.DivertSticky, a.OrderStays, a.StayCheaper, a.Fallbacks)
	}
	if *telemetryOut != "" {
		if err := writeTelemetry(*telemetryOut, res.Telemetry); err != nil {
			fmt.Fprintln(os.Stderr, "rlbsim:", err)
			os.Exit(2)
		}
		fmt.Printf("telemetry:  %d probes x %d samples (%d dropped) -> %s\n",
			len(res.Telemetry.Names), len(res.Telemetry.Times), res.Telemetry.Dropped, *telemetryOut)
	}
	fmt.Printf("wall:       %s for %v simulated\n", res.Wall.Round(time.Millisecond), res.SimTime)
	if *fingerprint {
		fmt.Printf("fingerprint: %s\n", harness.Fingerprint(res))
	}
	if *traceN > 0 {
		printTrace(res.Telemetry, *traceN)
	}
}

// printTrace prints a histogram of every recorded event kind and the last n
// events of the log.
func printTrace(rec *telemetry.Recording, n int) {
	var counts [telemetry.NumEventKinds]int
	for _, ev := range rec.Events {
		counts[ev.Kind]++
	}
	var parts []string
	for k, c := range counts {
		if c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", telemetry.EventKind(k), c))
		}
	}
	fmt.Printf("\ntrace:      %d events recorded (%s)\n", len(rec.Events), strings.Join(parts, " "))
	if rec.EventsDropped > 0 {
		fmt.Printf("trace:      %d later events dropped past the %d-event log\n", rec.EventsDropped, telemetry.EventCap)
	}
	last := rec.Events[max(0, len(rec.Events)-n):]
	fmt.Printf("last %d control-plane events:\n", len(last))
	for _, ev := range last {
		fmt.Println(ev)
	}
}

// writeTelemetry writes a recording to path, choosing the format from the
// extension (.csv = wide CSV, anything else = JSONL).
func writeTelemetry(path string, rec *telemetry.Recording) error {
	if rec == nil {
		return fmt.Errorf("telemetry: run produced no recording")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".csv") {
		return telemetry.WriteCSV(f, rec)
	}
	return telemetry.WriteJSONL(f, rec)
}

// printAveraged runs the spec at n seed offsets through the same averaging
// engine as the figure grids (harness.RunSpecsAveraged, same seed stride),
// so a dumped figure cell replayed with -seeds reproduces its averaged value.
func printAveraged(s spec.Spec, n int) {
	ms, err := harness.RunSpecsAveraged([]spec.Spec{s}, n)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlbsim:", err)
		os.Exit(2)
	}
	m := ms[0]
	fmt.Printf("scheme=%s workload=%s load=%.2f seeds=%d\n", s.Scheme, s.Workload, float64(s.LoadPct)/100, n)
	if s.IncastReps > 0 {
		fmt.Printf("avg over seeds: ooo=%.3g%% ict=%.4gms (%d/%d initiations finished)\n",
			100*m.OOORatio, m.ICTms, m.Finished, m.Initiations)
	} else {
		fmt.Printf("avg over seeds: afct=%.4gms p50=%.4gms p99=%.4gms ooo=%.3g%%\n",
			m.AFCT, m.P50, m.P99, m.OOOPct)
	}
	if m.Violations > 0 {
		fmt.Printf("INVARIANT VIOLATIONS: %d across %d seeds (rerun with -seeds 1 for detail)\n", m.Violations, n)
	} else if s.Strict {
		fmt.Printf("invariants: ok across %d seeds (strict)\n", n)
	}
}

// runRepro replays a scenario-fuzzer repro file through the full metamorphic
// property suite and reports whether the recorded failure still reproduces.
// Exit codes: 0 = fixed (no property fails any more), 1 = still failing,
// 2 = unreadable file.
func runRepro(path string) int {
	r, fail, err := scenario.Replay(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rlbsim:", err)
		return 2
	}
	fmt.Printf("repro:    %s\n", path)
	fmt.Printf("recorded: %s: %s\n", r.Property, r.Detail)
	fmt.Printf("scenario: %s\n", r.Spec.Params())
	if fail == nil {
		fmt.Println("verdict:  PASS — the recorded failure no longer reproduces")
		return 0
	}
	fmt.Printf("verdict:  FAIL — %s: %s\n", fail.Property, fail.Detail)
	return 1
}
