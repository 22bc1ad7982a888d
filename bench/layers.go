package main

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"time"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/switchsim"
)

// countLayers adds one simulation's exact per-layer operation counts to c,
// read from public fields of the retained network.
func countLayers(c map[string]float64, r *harness.Result) {
	add := func(key string, v uint64) { c[key] += float64(v) }
	n := r.Network
	add("sim.events", r.Events)
	c["sim.sim_ms"] += r.SimTime.Millis()
	for _, h := range n.Hosts {
		add("fabric.frames_tx", h.NIC().Stats.TxFrames)
	}
	for _, sws := range [][]*switchsim.Switch{n.Leaves, n.Spines} {
		for _, sw := range sws {
			for i := 0; i < sw.NumPorts(); i++ {
				add("fabric.frames_tx", sw.Port(i).Stats.TxFrames)
			}
			add("switchsim.frames_in", sw.Stats.DataIn)
		}
	}
	add("fabric.pool_gets", n.PacketPool().Stats().Gets)
	add("switchsim.pause_frames", r.Pauses)
	add("switchsim.drops", r.Drops)
	add("switchsim.recircs", r.Recircs)
	for _, f := range n.Flows {
		add("transport.data_sent", f.PktsSent)
		add("transport.data_rcvd", f.PktsRcvd)
		add("transport.retx", f.Retrans)
		add("transport.rtos", f.RTOs)
		add("transport.dups", f.Dups)
		add("transport.ooo", f.OOOPkts)
		add("dcqcn.cnps", f.CNPsSent)
	}
	add("core.picks", r.Agents.PicksTotal)
	add("core.picks_warned", r.Agents.PicksWarned)
	add("core.reroutes", r.Agents.Reroutes)
	add("core.recircs", r.Agents.Recircs)
	add("core.fallbacks", r.Agents.Fallbacks)
	for _, p := range n.Predictors {
		add("core.predictor_samples", p.Stats.Samples)
		add("core.warnings", p.Stats.Warnings)
	}
	for _, rl := range n.Relays {
		add("core.cnm_relayed", rl.Stats.Relayed)
	}
}

// modulePrefix is the import-path prefix of the simulator's packages.
const modulePrefix = "github.com/rlb-project/rlb/internal/"

// cpuLayers are the simulator packages that get a cpu_pct row of their own.
// Every other package, the benchmark's included, is folded into other.
var cpuLayers = []string{
	"sim", "fabric", "switchsim", "transport", "dcqcn", "lb", "core", "flatmap",
	"topo", "harness", "spec", "metrics", "invariant", "workload", "rng",
}

// Runtime functions are split by name into garbage collection (marking,
// sweeping, write barriers) and allocation (the malloc path and the span and
// page allocators behind it); the rest of the runtime (scheduler, memmove,
// map and hash code, system calls) is runtime.other.
var (
	gcFuncs = []string{
		"runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.grey", "runtime.mark",
		"runtime.(*mark", "runtime.findObject", "runtime.spanOf", "runtime.pageIndexOf",
		"runtime.sweep", "runtime.(*sweep", "runtime.bgsweep", "runtime.(*mspan).sweep",
		"runtime.wbBuf", "runtime.bulkBarrier", "runtime.gcWriteBarrier", "runtime.typePointers",
		"runtime.(*mspan).typePointers", "runtime.(*mheap).freeSpan", "runtime.(*spanSet)",
		"runtime.(*lfstack)", "runtime.(*mspan).markBits", "runtime.(*mspan).isFree",
		"runtime.(*mspan).countAlloc", "runtime.(*stackScanState)",
	}
	allocFuncs = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.memclrNoHeapPointers",
		"runtime.nextFreeFast", "runtime.(*mcache)", "runtime.(*mcentral)",
		"runtime.(*mheap).alloc", "runtime.(*mheap).grow", "runtime.(*mheap).initSpan",
		"runtime.(*mspan).nextFreeIndex", "runtime.(*mspan).refillAllocCache", "runtime.(*mspan).init",
		"runtime.(*mspan).heapBits", "runtime.(*mspan).writeHeapBits", "runtime.heapSetType",
		"runtime.heapBitsSetType", "runtime.(*pageAlloc)", "runtime.(*pageCache)", "runtime.sysAlloc",
		"runtime.sysUsed", "runtime.publicationBarrier", "runtime.deductAssistCredit",
		"runtime.roundupsize", "runtime.(*fixalloc)",
	}
)

// funcPackage returns the import path of the package that defines fn, a
// function name as pprof prints it. The path ends at the first dot after its
// last slash; type arguments of generic code may hold slashes of their own,
// so the search stops at the first bracket or parenthesis.
func funcPackage(fn string) string {
	name := strings.TrimSuffix(fn, " (inline)")
	if i := strings.IndexAny(name, "[("); i >= 0 {
		name = name[:i]
	}
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerOf maps a function to its cpu_pct row: a simulator package, one of
// runtime.gc, runtime.alloc and runtime.other, or other. An inlined function
// counts toward the package that defines it, not the one it was inlined into.
func layerOf(fn string) string {
	pkg := funcPackage(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		name := strings.TrimSuffix(fn, " (inline)")
		for _, p := range gcFuncs {
			if strings.HasPrefix(name, p) {
				return "runtime.gc"
			}
		}
		for _, p := range allocFuncs {
			if strings.HasPrefix(name, p) {
				return "runtime.alloc"
			}
		}
		return "runtime.other"
	}
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
	}
	return "other"
}

// cpuRows lists every cpu_pct row in print order; the rows partition the
// profile, so their shares sum to 100.
func cpuRows() []string {
	return append(append([]string(nil), cpuLayers...), "runtime.gc", "runtime.alloc", "runtime.other", "other")
}

// topRow matches one function row of `pprof -top`: flat, flat%, sum%, cum,
// cum%, then the function name, which may contain spaces.
var topRow = regexp.MustCompile(`^\s*(\S+)\s+\S+%\s+\S+%\s+\S+\s+\S+%\s+(.+?)\s*$`)

// foldTop sums the flat (self) CPU time of a `pprof -top` listing by layer,
// in milliseconds.
func foldTop(top string) (map[string]float64, error) {
	cpu := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(top))
	header := false
	for sc.Scan() {
		line := sc.Text()
		if !header {
			header = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		m := topRow.FindStringSubmatch(line)
		if m == nil {
			return nil, fmt.Errorf("pprof -top: unexpected line %q", line)
		}
		d, err := parseFlat(m[1])
		if err != nil {
			return nil, fmt.Errorf("pprof -top: line %q: %w", line, err)
		}
		cpu[layerOf(m[2])] += d
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no table header in output")
	}
	return cpu, nil
}

// parseFlat reads a pprof time such as "120ms", "1.50s" or "0" as
// milliseconds.
func parseFlat(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return float64(d) / float64(time.Millisecond), nil
}

// pprofTop runs `go tool pprof -top` over the profiles, listing every
// function with its flat time in milliseconds.
func pprofTop(ctx context.Context, profiles []string) (string, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0"}, profiles...)
	cmd := exec.CommandContext(ctx, "go", args...)
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			return "", fmt.Errorf("go tool pprof: %w: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric. Counts come from the first
// untraced pass (every pass runs the same simulations, and the fingerprint
// check holds them equal); CPU shares come from the profiles of the traced
// passes, cpu being their flat milliseconds by row; span times are medians
// over the traced passes.
func layerMetrics(plain, traced []*pass, cpu map[string]float64) map[string]float64 {
	c := plain[0].counts
	v := map[string]float64{}
	var total float64
	for _, ms := range cpu {
		total += ms
	}
	for _, row := range cpuRows() {
		v[cpuMetricName(row)] = 100 * ratio(cpu[row], total)
	}
	// CPU nanoseconds per operation over all traced passes.
	nsPer := func(row string, perPass float64) float64 {
		return ratio(cpu[row]*1e6, perPass*float64(len(traced)))
	}
	v["sim.ns_per_event"] = nsPer("sim", c["sim.events"])
	v["fabric.ns_per_frame"] = nsPer("fabric", c["fabric.frames_tx"])
	v["switchsim.ns_per_frame"] = nsPer("switchsim", c["switchsim.frames_in"])
	v["transport.ns_per_frame"] = nsPer("transport", c["transport.data_sent"]+c["transport.data_rcvd"])
	v["lb.ns_per_pick"] = nsPer("lb", c["core.picks"])
	v["core.ns_per_pick"] = nsPer("core", c["core.picks"])
	for _, k := range []string{
		"sim.events", "fabric.frames_tx", "fabric.pool_gets",
		"switchsim.frames_in", "switchsim.pause_frames", "switchsim.drops", "switchsim.recircs",
		"transport.rtos", "transport.dups", "dcqcn.cnps",
		"core.picks", "core.picks_warned", "core.reroutes", "core.recircs", "core.fallbacks",
		"core.warnings", "core.predictor_samples", "core.cnm_relayed",
	} {
		v[k] = c[k]
	}
	v["sim.events_per_sim_ms"] = ratio(c["sim.events"], c["sim.sim_ms"])
	v["transport.retx_pct"] = 100 * ratio(c["transport.retx"], c["transport.data_sent"])
	v["transport.ooo_pct"] = 100 * ratio(c["transport.ooo"], c["transport.data_rcvd"])
	v["transport.unfinished_pct"] = 100 * ratio(float64(plain[0].unfinished), float64(plain[0].flows))

	ms := func(ps []*pass, d func(*pass) time.Duration) float64 {
		return median(samples(ps, func(p *pass) float64 { return float64(d(p)) / 1e6 }))
	}
	v["topo.build_ms"] = ms(traced, func(p *pass) time.Duration { return p.build })
	v["harness.compile_ms"] = ms(traced, func(p *pass) time.Duration { return p.compile })
	v["spec.decode_ms"] = ms(traced, func(p *pass) time.Duration { return p.decode })

	v["runtime.alloc_mb"] = median(samples(plain, func(p *pass) float64 { return float64(p.allocBytes) / 1e6 }))
	v["runtime.mallocs"] = median(samples(plain, func(p *pass) float64 { return float64(p.mallocs) }))
	v["runtime.gc_cycles"] = median(samples(plain, func(p *pass) float64 { return float64(p.gcs) }))
	v["runtime.gc_pause_ms"] = median(samples(plain, func(p *pass) float64 { return float64(p.gcPauseNs) / 1e6 }))

	v["trace.overhead_pct"] = 100 * (ratio(median(samples(traced, refWall)), median(samples(plain, refWall))) - 1)
	return v
}

// cpuMetricName names a cpu_pct row's metric: runtime.gc becomes
// runtime.gc_cpu_pct, a package p becomes p.cpu_pct.
func cpuMetricName(row string) string {
	if strings.HasPrefix(row, "runtime.") {
		return row + "_cpu_pct"
	}
	return row + ".cpu_pct"
}

// samples applies f to every pass.
func samples(ps []*pass, f func(*pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}
