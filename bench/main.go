// Command bench is the repository benchmark. It runs the simulator on the
// workloads committed under bench/workloads, measures the simulator's host
// cost and the modelled network's outcome, checks every simulation, and
// prints one JSON record per workload followed by a result line.
//
// Usage, from the repository root:
//
//	go run ./bench [-workload NAME] [-seed N] [-seconds S] [-trace 1]
//	go run ./bench -compare a.json b.json
//
// Each workload runs in its own child process with GOMAXPROCS=1, one
// simulation at a time, repeating whole passes over the workload for about
// -seconds. With -trace 1 each round adds a pass under the CPU profiler and
// the record gains per-layer metrics. bench/README.md documents the
// workloads, the metrics and how to read a comparison.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// workDir holds the CPU profiles of traced runs while they are folded. It
// is relative to the working directory, so a run writes only inside the
// checkout it was started from.
const workDir = ".bench_build"

// run executes the command line and returns the exit status: 0 when every
// check passed, 1 when a simulation failed a check, 2 when the benchmark
// could not run.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: every workload, one after another)")
	seed := fs.Uint64("seed", 1, "seed replacing every base simSeed of the workloads")
	seconds := fs.Float64("seconds", 20, "host seconds to measure each workload for")
	trace := fs.Int("trace", 0, "1 = also profile, and report per-layer metrics")
	compare := fs.Bool("compare", false, "compare the records of the two files given as arguments")
	child := fs.Bool("child", false, "run the workload in this process (the benchmark starts itself this way)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		if err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || (*child && *only == "") {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	names := workloadNames()
	if *only != "" {
		if _, err := workloadData(*only); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		names = []string{*only}
	}
	if *child {
		return runChild(ctx, stdout, stderr, names[0], *seed, *seconds, *trace == 1)
	}

	var recs []*record
	for _, name := range names {
		rec, err := runWorkload(ctx, stderr, name, *seed, *seconds, *trace)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		recs = append(recs, rec)
	}
	enc := json.NewEncoder(stdout)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	res := summarize(recs, *trace == 1)
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild measures one workload in this process and writes its record to
// stdout as one JSON line, with a table on stderr.
func runChild(ctx context.Context, stdout, stderr io.Writer, name string, seed uint64, seconds float64, traced bool) int {
	data, err := workloadData(name)
	if err == nil && traced {
		err = os.MkdirAll(workDir, 0o755)
	}
	var rec *record
	if err == nil {
		rec, err = measure(ctx, name, data, seed, seconds, traced, workDir)
	}
	if err == nil {
		printTable(stderr, rec)
		err = json.NewEncoder(stdout).Encode(rec)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 2
	}
	return 0
}

// runWorkload measures one workload in a child process of its own, pinned
// to one CPU with GOMAXPROCS=1, and returns its record. The child is killed
// if it outlives twice its budget plus two minutes, or if ctx ends.
func runWorkload(ctx context.Context, stderr io.Writer, name string, seed uint64, seconds float64, trace int) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, time.Duration(2*seconds+120)*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var rec record
	if err := json.Unmarshal(out, &rec); err != nil {
		return nil, fmt.Errorf("workload %s: reading its record: %w", name, err)
	}
	return &rec, nil
}

// result is the last line a run prints: whether every check passed, how
// many simulations ran and failed, and the metrics of the run — the
// end-to-end metrics, or the per-layer ones when traced. With more than one
// workload, each metric name is prefixed with its workload's.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func summarize(recs []*record, traced bool) result {
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, rec := range recs {
		res.Correct = res.Correct && rec.Correct
		res.Attempted += rec.Attempted
		res.Failed += rec.Failed
		ms := rec.Metrics
		if traced {
			ms = rec.Layers
		}
		for k, m := range ms {
			if len(recs) > 1 {
				k = rec.Workload + "." + k
			}
			res.Metrics[k] = m
		}
	}
	return res
}
