package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricDef names one reported metric and its unit. BENCHMARK.json declares
// the same lists with each metric's direction and bound; a test holds the
// two in agreement.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics of an untraced run. Host times are wall-clock
// times at the reference speed (see calibrate.go); the fct metrics are
// simulated time, fixed by the seed.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"events_per_s", "events/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"fct_mean_ms", "ms"},
	{"fct_p99_ms", "ms"},
}

// perLayer are the metrics of a traced run, grouped by layer.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	cpu := func(row string) { add("%", cpuMetricName(row)) }
	cpu("sim")
	add("ns", "sim.ns_per_event")
	add("count", "sim.events")
	add("1/ms", "sim.events_per_sim_ms")
	cpu("fabric")
	add("ns", "fabric.ns_per_frame")
	add("count", "fabric.frames_tx", "fabric.pool_gets")
	cpu("switchsim")
	add("ns", "switchsim.ns_per_frame")
	add("count", "switchsim.frames_in", "switchsim.pause_frames", "switchsim.drops", "switchsim.recircs")
	cpu("transport")
	add("ns", "transport.ns_per_frame")
	add("%", "transport.retx_pct")
	add("count", "transport.rtos", "transport.dups")
	add("%", "transport.ooo_pct", "transport.unfinished_pct")
	cpu("dcqcn")
	add("count", "dcqcn.cnps")
	cpu("lb")
	add("ns", "lb.ns_per_pick")
	cpu("core")
	add("ns", "core.ns_per_pick")
	add("count", "core.picks", "core.picks_warned", "core.reroutes", "core.recircs", "core.fallbacks",
		"core.warnings", "core.predictor_samples", "core.cnm_relayed")
	cpu("flatmap")
	cpu("topo")
	add("ms", "topo.build_ms")
	cpu("harness")
	add("ms", "harness.compile_ms")
	cpu("spec")
	add("ms", "spec.decode_ms")
	for _, l := range []string{"metrics", "invariant", "workload", "rng", "runtime.gc", "runtime.alloc", "runtime.other"} {
		cpu(l)
	}
	add("MB", "runtime.alloc_mb")
	add("count", "runtime.mallocs", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	cpu("other")
	add("%", "trace.overhead_pct")
	return defs
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet attaches units to values, in the order and under the names of
// defs. A definition without a value is a bug in the benchmark.
func metricSet(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic("bench: no value for metric " + d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out
}

// machine identifies where and from what a record was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

// record is the full result of one workload run. Its correct, attempted,
// failed and metrics fields have the meaning BENCHMARK.json's result line
// gives them.
type record struct {
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Machine      machine `json:"machine"`
	Sims         int     `json:"sims"`  // simulations per pass
	Flows        int     `json:"flows"` // flows per pass
	Passes       int     `json:"passes"`
	TracedPasses int     `json:"tracedPasses"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"` // simulations run, over all passes
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Metrics map[string]metric    `json:"metrics"`
	Samples map[string][]float64 `json:"samples"` // per untraced pass
	Layers  map[string]metric    `json:"layers,omitempty"`
	Spans   []span               `json:"spans,omitempty"`
}

// maxFailures caps the failure lines a record keeps.
const maxFailures = 20

// newRecord summarizes the passes of a run: host metrics are medians over
// the untraced passes, modelled metrics come from the first pass.
func newRecord(ctx context.Context, name string, seed uint64, seconds float64, traced bool, plain, profiled []*pass) *record {
	first := plain[0]
	rec := &record{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		Machine: machineInfo(ctx),
		Sims:    first.sims, Flows: first.flows,
		Passes: len(plain), TracedPasses: len(profiled),
	}
	for _, p := range append(append([]*pass(nil), plain...), profiled...) {
		rec.Attempted += p.sims
		rec.Failed += len(p.failures)
		for _, f := range p.failures {
			if len(rec.Failures) < maxFailures {
				rec.Failures = append(rec.Failures, f)
			}
		}
		rec.Spans = append(rec.Spans, p.spans...)
	}
	rec.Correct = rec.Failed == 0
	rec.Samples = map[string][]float64{
		"wall_s":       samples(plain, refWall),
		"events_per_s": samples(plain, func(p *pass) float64 { return ratio(p.counts["sim.events"], p.loop.Seconds()*p.refScale()) }),
		"setup_s":      setupSamples(plain),
		"step_ns":      samples(plain, (*pass).stepNs),
	}
	rec.Metrics = metricSet(endToEnd, map[string]float64{
		"wall_s":       median(rec.Samples["wall_s"]),
		"events_per_s": median(rec.Samples["events_per_s"]),
		"setup_s":      median(rec.Samples["setup_s"]),
		"peak_rss_mb":  peakRSSMB(),
		"fct_mean_ms":  first.fctMean,
		"fct_p99_ms":   first.fctP99,
	})
	return rec
}

// refWall is a pass's wall time at the reference speed, in seconds.
func refWall(p *pass) float64 { return p.wall.Seconds() * p.refScale() }

// setupSamples returns one estimate of a pass's set-up time, at the
// reference speed, per simulation set up in the untraced passes: that
// simulation's set-up times the simulations in a pass, plus the median time
// to decode the grids. A pass sets up each simulation once, in well under a
// millisecond on the fabric workloads, where one garbage-collection cycle
// can multiply it; the median of these samples is steady where a per-pass
// sum is not.
func setupSamples(plain []*pass) []float64 {
	decode := median(samples(plain, func(p *pass) float64 { return p.decode.Seconds() * p.refScale() }))
	var out []float64
	for _, p := range plain {
		for _, s := range p.setups {
			out = append(out, s.Seconds()*float64(p.sims)*p.refScale()+decode)
		}
	}
	return out
}

// peakRSSMB returns this process's peak resident set size (VmHWM) in MB, or
// -1 where /proc is unavailable.
func peakRSSMB() float64 {
	kb, ok := procField("/proc/self/status", "VmHWM:")
	if !ok {
		return -1
	}
	n, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return -1
	}
	return n * 1024 / 1e6
}

// procField returns the trimmed text after the first line of file starting
// with key.
func procField(file, key string) (string, bool) {
	f, err := os.Open(file)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), true
		}
	}
	return "", false
}

// machineInfo describes the host, the Go toolchain and the commit measured.
// The commit is read with git from the working directory only, never a
// parent directory; outside a git checkout it is "unknown".
func machineInfo(ctx context.Context) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if cpu, ok := procField("/proc/cpuinfo", "model name"); ok {
		m.CPU = cpu
	}
	git := func(args ...string) (string, bool) {
		cmd := exec.CommandContext(ctx, "git", args...)
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err == nil
	}
	if head, ok := git("rev-parse", "HEAD"); ok {
		m.Commit = head
		status, _ := git("status", "--porcelain")
		m.Dirty = status != ""
	}
	return m
}

// printTable writes a record as aligned text: the end-to-end metrics with
// their spread over passes, then the per-layer metrics when traced.
func printTable(w io.Writer, rec *record) {
	fmt.Fprintf(w, "%s  seed=%d  %d sims/pass  %d flows/pass  passes=%d traced=%d  attempted=%d failed=%d  calibration step %.1f ns (reference %.1f)\n",
		rec.Workload, rec.Seed, rec.Sims, rec.Flows, rec.Passes, rec.TracedPasses, rec.Attempted, rec.Failed,
		median(rec.Samples["step_ns"]), refStepNs)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "  metric\tmedian\tq1\tq3\tunit\t")
	for _, d := range endToEnd {
		q1, med, q3 := rec.Metrics[d.Name].Value, rec.Metrics[d.Name].Value, rec.Metrics[d.Name].Value
		if s, ok := rec.Samples[d.Name]; ok {
			q1, med, q3 = quartiles(s)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%.6g\t%s\t\n", d.Name, med, q1, q3, d.Unit)
	}
	for _, d := range perLayer {
		if m, ok := rec.Layers[d.Name]; ok {
			fmt.Fprintf(tw, "  %s\t%.6g\t\t\t%s\t\n", d.Name, m.Value, d.Unit)
		}
	}
	tw.Flush()
}
