package scenario

import (
	"fmt"

	"github.com/rlb-project/rlb/internal/harness"
	"github.com/rlb-project/rlb/internal/sim"
)

// The metamorphic properties every scenario must satisfy. Each is a
// model-level truth the paper's setup implies, not a tuned expectation, so a
// violation is a simulator bug (or a deliberately injected breach), never a
// flaky scenario.
const (
	// PropChecks: the invariant checker actually ran assertions (guards
	// against the suite silently testing nothing).
	PropChecks = "checker-wired"
	// PropInvariants: no runtime invariant fired (pool conservation, PSN
	// order, monotone time, lossless PFC accounting, blackhole detection).
	PropInvariants = "invariants-clean"
	// PropLossless: PFC is on in every generated scenario, so buffer drops
	// must be exactly zero regardless of incast degree or fault windows.
	PropLossless = "pfc-lossless"
	// PropWireLoss: frames die on the wire only when a kill window cuts a
	// link; fault-free (and degrade-only) runs must not lose a frame.
	PropWireLoss = "no-wire-loss-fault-free"
	// PropCompletion: every generated fault window restores the link before
	// the traffic window ends and the drain exceeds several RTOs, so every
	// flow must complete — go-back-N plus restored paths guarantee it.
	PropCompletion = "flows-complete"
	// PropDeterminism: the same spec replays bit-identically (flow-level
	// fingerprint) run over run.
	PropDeterminism = "same-seed-determinism"
	// PropSchedEquiv: the calendar-queue scheduler and the reference heap
	// must be observationally equivalent end to end.
	PropSchedEquiv = "scheduler-equivalence"
)

// Failure is one property violation: which property, on which (normalized)
// spec, with enough detail to read the log without re-running.
type Failure struct {
	Property string `json:"property"`
	Detail   string `json:"detail"`
	Spec     Spec   `json:"spec"`
}

func (f *Failure) Error() string {
	return fmt.Sprintf("scenario violates %s: %s [%s]", f.Property, f.Detail, f.Spec.Params())
}

// CheckFunc decides whether a spec fails; Check is the real one, tests
// substitute pure predicates to exercise the shrinker cheaply.
type CheckFunc func(Spec) *Failure

// Check runs the full metamorphic property suite on one spec: two
// calendar-queue runs (single-run properties + same-seed determinism) and
// one reference-heap run (scheduler equivalence). Returns nil when every
// property holds.
func Check(s Spec) *Failure {
	s = s.Normalize()
	a := harness.Run(propertyConfig(s, sim.SchedCalendar))
	if f := checkSingleRun(s, a); f != nil {
		return f
	}
	b := harness.Run(propertyConfig(s, sim.SchedCalendar))
	if fa, fb := harness.Fingerprint(a), harness.Fingerprint(b); fa != fb {
		return &Failure{
			Property: PropDeterminism,
			Detail:   fmt.Sprintf("same spec diverged across runs:\n%s\nvs\n%s", fa, fb),
			Spec:     s,
		}
	}
	h := harness.Run(propertyConfig(s, sim.SchedHeap))
	if fa, fh := harness.Fingerprint(a), harness.Fingerprint(h); fa != fh {
		return &Failure{
			Property: PropSchedEquiv,
			Detail:   fmt.Sprintf("calendar and heap schedulers diverged:\ncalendar %s\nvs\nheap     %s", fa, fh),
			Spec:     s,
		}
	}
	return nil
}

// propertyConfig compiles a normalized spec for one property-suite run under
// the given event scheduler. The shared compiler builds the config; the
// property suite then forces its own observation knobs — strict invariants
// always on (their audits are what the properties consume) and the network
// retained for flow-level fingerprinting.
func propertyConfig(s Spec, kind sim.SchedulerKind) harness.RunConfig {
	cfg := harness.MustCompile(s)
	cfg.Topo.Scheduler = kind
	cfg.StrictInvariants = true
	cfg.KeepNetwork = true
	return cfg
}

// checkSingleRun evaluates the properties observable from one run.
func checkSingleRun(spec Spec, r *harness.Result) *Failure {
	fail := func(prop, format string, args ...any) *Failure {
		return &Failure{Property: prop, Detail: fmt.Sprintf(format, args...), Spec: spec}
	}
	if r.InvariantChecks == 0 {
		return fail(PropChecks, "strict invariant checker executed zero assertions")
	}
	if n := len(r.Violations); n > 0 {
		detail := fmt.Sprintf("%d invariant violation(s), first: %v", n, r.Violations[0])
		if n > 1 {
			detail += fmt.Sprintf("; last: %v", r.Violations[n-1])
		}
		return fail(PropInvariants, "%s", detail)
	}
	if r.Drops != 0 {
		return fail(PropLossless, "%d buffer drops in a PFC-lossless fabric", r.Drops)
	}
	kills := 0
	for _, f := range spec.Faults {
		if f.Kill() {
			kills++
		}
	}
	if kills == 0 && r.WireLost != 0 {
		return fail(PropWireLoss, "%d frames lost on the wire with no kill window scheduled", r.WireLost)
	}
	if r.Report.Completed != r.Report.Flows {
		return fail(PropCompletion, "%d of %d flows incomplete after restore + %dus drain",
			r.Report.Flows-r.Report.Completed, r.Report.Flows, spec.DrainUs)
	}
	return nil
}

// Sweep checks n scenarios generated from consecutive seeds base..base+n-1,
// fanned out on harness.Parallel (GOMAXPROCS workers when workers <= 0), and
// returns one slot per scenario: nil for a clean pass, the Failure otherwise.
// Check is a pure function of its spec, so the output is identical for any
// worker count.
func Sweep(base uint64, n, workers int) []*Failure {
	failures := make([]*Failure, n)
	harness.Parallel(n, workers, func(i int) {
		failures[i] = Check(Generate(base + uint64(i)))
	})
	return failures
}
