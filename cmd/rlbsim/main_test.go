package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/spec"
)

// runMainEnv, when set, makes the test binary run rlbsim's main() with its
// command-line arguments instead of the tests, so each case below exercises
// the real flag parsing, output and exit codes in a child process.
const runMainEnv = "RLBSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyFabric is a 2x2/2 drill+rlb run short enough for a unit test and busy
// enough that PFC pauses and RLB warnings fire.
var tinyFabric = []string{
	"-leaves", "2", "-spines", "2", "-hosts", "2", "-scheme", "drill+rlb",
	"-load", "0.8", "-cap", "100000", "-duration", "200us", "-drain", "300us",
}

// rlbsim runs main() in a child process and returns its stdout, stderr and
// exit code.
func rlbsim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

func TestTraceFlagPrintsLastEvents(t *testing.T) {
	out, stderr, code := rlbsim(t, append(tinyFabric, "-trace", "5")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	summary := regexp.MustCompile(`(?m)^trace: +(\d+) events recorded \((.*PAUSE_ON=\d+.*)\)$`)
	if !summary.MatchString(out) {
		t.Fatalf("no kind summary covering PAUSE_ON in:\n%s", out)
	}
	_, tail, ok := strings.Cut(out, "last 5 control-plane events:\n")
	if !ok {
		t.Fatalf("no event listing in:\n%s", out)
	}
	lines := strings.Split(strings.TrimSuffix(tail, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 event lines, got %d:\n%s", len(lines), tail)
	}
	for _, l := range lines {
		if !strings.Contains(l, " dev=") || !strings.Contains(l, " aux=") {
			t.Fatalf("malformed event line %q", l)
		}
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	for name, args := range map[string][]string{
		"trace with seeds": append(tinyFabric, "-trace", "5", "-seeds", "2"),
		"removed -sched":   append(tinyFabric, "-sched", "heap"),
		"65 spines":        append(tinyFabric, "-spines", "65"),
	} {
		out, stderr, code := rlbsim(t, args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2\nstdout:\n%s\nstderr:\n%s", name, code, out, stderr)
		}
		if strings.Contains(stderr, "panic:") {
			t.Errorf("%s: panicked:\n%s", name, stderr)
		}
	}
}

// TestHelpListsSchemesAndWorkloads pins the -scheme and -workload help,
// which is built from lb.Schemes and workload.Names: same names, same order.
func TestHelpListsSchemesAndWorkloads(t *testing.T) {
	_, stderr, code := rlbsim(t, "-h")
	if code != 0 {
		t.Fatalf("-h exit %d:\n%s", code, stderr)
	}
	for _, want := range []string{
		"load balancer: ecmp|presto|letflow|hermes|drill|conga, optionally +rlb",
		"workload: webserver|cachefollower|websearch|datamining",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("help does not contain %q:\n%s", want, stderr)
		}
	}
}

// TestSpecOutOfRangeExitsTwo loads raw specs with one field out of range on
// a 2x2/2 fabric (4 hosts). Compile must reject each as a usage error that
// names the field and its valid range, instead of the run panicking or
// silently running something else: on more asymmetric links than the fabric
// has, on an incast client that is not a host, on an incast or fault
// scheduled before time zero, on a degrade window below 1 bit/s, or on a
// negative link delay.
func TestSpecOutOfRangeExitsTwo(t *testing.T) {
	for _, c := range []struct {
		name string
		mut  func(*spec.Spec)
		want string
	}{
		{"asymPct", func(s *spec.Spec) { s.AsymPct = 150 }, "asymPct 150: valid range is 0..100"},
		{"incastClient", func(s *spec.Spec) {
			s.IncastDegree, s.IncastKB, s.IncastClient = 2, 40, 99
		}, "incastClient 99: valid range is 0..3"},
		{"incastAtUs", func(s *spec.Spec) {
			s.IncastDegree, s.IncastKB, s.IncastAtUs = 2, 40, -5
		}, "incastAtUs -5: valid range is 0..9223372036854"},
		{"downAtUs", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: -10, UpAtUs: 100}}
		}, "downAtUs -10: valid range is 0..9223372036854"},
		{"rateDiv", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 10, UpAtUs: 100, RateDiv: 20_000_000_000}}
		}, "fault on link (l0,s1) rateDiv 20000000000: valid range is 0..10000000000"},
		{"linkDelayNs", func(s *spec.Spec) { s.LinkDelayNs = -5 }, "linkDelayNs -5: valid range is 0..9223372036854775"},
		{"loadPct", func(s *spec.Spec) { s.LoadPct = 150 }, "loadPct 150: valid range is 0..100"},
		{"linkGbps", func(s *spec.Spec) { s.LinkGbps = 10_000_000_000 }, "linkGbps 10000000000: valid range is 1..512000"},
		{"linkDelayNs past MaxTime", func(s *spec.Spec) {
			s.LinkDelayNs = 9_300_000_000_000_000
		}, "linkDelayNs 9300000000000000: valid range is 0..9223372036854775"},
		{"incastAtUs past MaxTime", func(s *spec.Spec) {
			s.IncastDegree, s.IncastKB, s.IncastAtUs = 2, 40, 9_300_000_000_000
		}, "incastAtUs 9300000000000: valid range is 0..9223372036854"},
		{"downAtUs past MaxTime", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 9_300_000_000_000}}
		}, "downAtUs 9300000000000: valid range is 0..9223372036854"},
		{"upAtUs past MaxTime", func(s *spec.Spec) {
			s.Faults = []spec.FaultSpec{{Leaf: 0, Spine: 1, DownAtUs: 10, UpAtUs: 9_300_000_000_000}}
		}, "upAtUs 9300000000000: need <= 9223372036854"},
		{"durationUs", func(s *spec.Spec) { s.DurationUs = 10_000_000_000_000 }, "durationUs 10000000000000: valid range is 1..9223372036854"},
		{"drainUs", func(s *spec.Spec) { s.DrainUs = 9_300_000_000_000 }, "drainUs 9300000000000: valid range is 0..9223372036854"},
		{"durationUs+drainUs", func(s *spec.Spec) {
			s.DurationUs, s.DrainUs = 9_223_372_036_854, 1
		}, "durationUs + drainUs 9223372036855: valid range is 1..9223372036854"},
		{"deltaTNs", func(s *spec.Spec) {
			s.Scheme, s.DeltaTNs = "drill+rlb", 9_300_000_000_000_000
		}, "deltaTNs 9300000000000000: valid range is 0..9223372036854775"},
		{"sampleUs", func(s *spec.Spec) {
			s.Telemetry = &spec.TelemetrySpec{SampleUs: 9_300_000_000_000}
		}, "telemetry sampleUs 9300000000000: valid range is 1..9223372036854"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := spec.Spec{
				SimSeed: 1, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 10,
				Scheme: "drill", Workload: "websearch", LoadPct: 50,
				DurationUs: 200, DrainUs: 300,
			}
			c.mut(&s)
			data, err := spec.Encode(s)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "spec.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			out, stderr, code := rlbsim(t, "-spec", path)
			if code != 2 {
				t.Fatalf("exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
			}
			if strings.Contains(stderr, "panic:") {
				t.Fatalf("panicked:\n%s", stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Fatalf("stderr does not contain %q:\n%s", c.want, stderr)
			}
		})
	}
}

// TestDumpSpecReplays freezes a flag-built run with -dump-spec and replays it
// through -spec: every metric line must match.
func TestDumpSpecReplays(t *testing.T) {
	spec, stderr, code := rlbsim(t, append(tinyFabric, "-dump-spec")...)
	if code != 0 {
		t.Fatalf("dump-spec exit %d: %s", code, stderr)
	}
	path := filepath.Join(t.TempDir(), "exp.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFlags, _, code1 := rlbsim(t, append(tinyFabric, "-fingerprint")...)
	fromSpec, _, code2 := rlbsim(t, "-spec", path, "-fingerprint")
	if code1 != 0 || code2 != 0 {
		t.Fatalf("exit codes %d/%d", code1, code2)
	}
	wall := regexp.MustCompile(`(?m)^wall:.*$`)
	if a, b := wall.ReplaceAllString(fromFlags, ""), wall.ReplaceAllString(fromSpec, ""); a != b {
		t.Fatalf("replayed spec diverged:\nflags:\n%s\nspec:\n%s", a, b)
	}
}

// TestSeedsAverageMatchesFigureEngine replays a spec file with -seeds 2: the
// averaged AFCT and p99 must be the ones harness.RunSpecsAveraged returns for
// that spec, so a dumped figure cell reproduces its figure value.
func TestSeedsAverageMatchesFigureEngine(t *testing.T) {
	s := spec.Spec{
		SimSeed: 3, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 10,
		Scheme: "drill+rlb", Workload: "websearch", LoadPct: 50,
		MaxFlowKB: 100, DurationUs: 200, DrainUs: 2000,
	}
	data, err := spec.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, stderr, code := rlbsim(t, "-spec", path, "-seeds", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	ms, err := harness.RunSpecsAveraged([]spec.Spec{s}, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := ms[0]
	want := fmt.Sprintf("avg over seeds: afct=%.4gms p50=%.4gms p99=%.4gms ooo=%.3g%%\n",
		m.AFCT, m.P50, m.P99, m.OOOPct)
	if !strings.Contains(out, want) {
		t.Fatalf("averaged output does not match RunSpecsAveraged:\nwant line %q\ngot:\n%s", want, out)
	}
}
