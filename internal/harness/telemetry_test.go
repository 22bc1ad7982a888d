package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/rlb-project/rlb/internal/spec"
	"github.com/rlb-project/rlb/internal/switchsim"
	"github.com/rlb-project/rlb/internal/telemetry"
)

// Refresh the telemetry golden after an intentional behavior change:
//
//	go test ./internal/harness/ -run TestTelemetryGoldenJSONL -update-telemetry
var updateTelemetry = flag.Bool("update-telemetry", false, "rewrite testdata/telemetry_golden.jsonl")

// telemetrySpec is the pinned scenario behind the telemetry golden: small
// enough to run in a unit test, busy enough that queues build, PFC fires,
// and DCQCN reacts — so the sampled series actually move and the event log
// fills with pauses, warnings and recirculations.
func telemetrySpec() spec.Spec {
	return spec.Spec{
		SimSeed: goldenSeed, Leaves: 2, Spines: 2, HostsPerLeaf: 2, LinkGbps: 10,
		Scheme: "drill+rlb", Workload: "websearch", LoadPct: 40,
		MaxFlowKB: 100, DurationUs: 200, DrainUs: 300,
		Telemetry: &spec.TelemetrySpec{SampleUs: 20},
	}
}

// TestTelemetryFingerprintParity is the observation-only contract: the same
// spec must produce a bit-identical determinism fingerprint — including every
// retained flow's finish time — with telemetry sampling on and off. Sampler
// events may interleave with simulation events on the calendar, but they read
// state without mutating it, and recording an event writes only to the log,
// so nothing downstream may shift.
func TestTelemetryFingerprintParity(t *testing.T) {
	run := func(s spec.Spec) (string, *telemetry.Recording) {
		cfg := MustCompile(s)
		cfg.KeepNetwork = true
		cfg.StrictInvariants = true
		res := Run(cfg)
		if len(res.Violations) != 0 {
			t.Fatalf("invariant violations: %v", res.Violations[0])
		}
		fp := Fingerprint(res)
		res.Network = nil
		return fp, res.Telemetry
	}

	with := telemetrySpec()
	without := telemetrySpec()
	without.Telemetry = nil

	fpOn, rec := run(with)
	fpOff, recOff := run(without)

	if rec == nil {
		t.Fatal("telemetry spec produced no recording")
	}
	if recOff != nil {
		t.Fatal("telemetry-off run attached a recording")
	}
	if len(rec.Times) < 10 || len(rec.Names) == 0 || len(rec.Events) == 0 {
		t.Fatalf("implausibly small recording: %d samples x %d probes, %d events",
			len(rec.Times), len(rec.Names), len(rec.Events))
	}
	if fpOn != fpOff {
		t.Fatalf("telemetry sampling perturbed the simulation:\non:  %s\noff: %s", fpOn, fpOff)
	}
}

// TestEventsReconcileWithCounters checks the event log against the counters
// the same run keeps: each kind's event count must equal its counter summed
// over the fabric, so no emission site is missing or doubled.
func TestEventsReconcileWithCounters(t *testing.T) {
	cfg := MustCompile(telemetrySpec())
	cfg.KeepNetwork = true
	res := Run(cfg)
	rec, n := res.Telemetry, res.Network
	if rec.EventsDropped != 0 {
		t.Fatalf("event log dropped %d events", rec.EventsDropped)
	}
	var got, want [telemetry.NumEventKinds]uint64
	for _, ev := range rec.Events {
		got[ev.Kind]++
	}
	for _, sw := range append(append([]*switchsim.Switch{}, n.Leaves...), n.Spines...) {
		want[telemetry.PauseOn] += sw.Stats.PauseSent
		want[telemetry.PauseOff] += sw.Stats.ResumeSent
		want[telemetry.Recirc] += sw.Stats.Recirced
		want[telemetry.Drop] += sw.Stats.Dropped
	}
	for _, a := range n.Agents {
		want[telemetry.WarnSet] += a.Stats.WarningsRcvd
	}
	for _, p := range n.Predictors {
		want[telemetry.CNMSent] += p.Stats.Warnings
	}
	for _, r := range n.Relays {
		want[telemetry.CNMRelay] += r.Stats.Relayed
	}
	for k := range got {
		if got[k] != want[k] {
			t.Errorf("%s: %d events, counters sum to %d", telemetry.EventKind(k), got[k], want[k])
		}
	}
	if got[telemetry.PauseOn] == 0 || got[telemetry.CNMSent] == 0 || got[telemetry.WarnSet] == 0 {
		t.Fatalf("pinned spec too quiet to reconcile: %v", got)
	}
}

// TestTelemetryGoldenJSONL pins the exported JSONL byte-for-byte: probe set,
// sample times, every sampled value, and every recorded event for the pinned
// spec at goldenSeed.
// Any diff means either the exporter format changed or the simulation's
// observable state trajectory changed — both require a deliberate refresh
// with -update-telemetry and a CHANGES.md note.
func TestTelemetryGoldenJSONL(t *testing.T) {
	res := Run(MustCompile(telemetrySpec()))
	if res.Telemetry == nil {
		t.Fatal("no recording")
	}
	if res.Telemetry.Dropped != 0 || res.Telemetry.EventsDropped != 0 {
		t.Fatalf("recording dropped %d samples, %d events; capacity math is wrong",
			res.Telemetry.Dropped, res.Telemetry.EventsDropped)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, res.Telemetry); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "telemetry_golden.jsonl")
	if *updateTelemetry {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no telemetry golden (run with -update-telemetry to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := buf.Bytes()
		line := 1
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				break
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("telemetry JSONL drifted from golden at line %d (got %d bytes, want %d); refresh with -update-telemetry if intentional",
			line, len(got), len(want))
	}
}
