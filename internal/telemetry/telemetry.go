// Package telemetry is the simulator's run-time observability layer: named
// probes sampled periodically on the simulation clock into fixed-capacity,
// preallocated series buffers, plus a log of the control-plane events the
// switches and RLB components emit (PFC pauses, drops, recirculations, CNM
// warnings), exportable as JSONL (series and events) or CSV (series).
//
// The paper's evaluation is built on time-series evidence — queue build-up
// and PFC pause propagation over time (Figs. 1–2), OOD degree, throughput
// under asymmetry — but end-of-run aggregates cannot show *when* a queue
// filled or a pause front crossed the fabric. Telemetry closes that gap
// without touching the determinism contract:
//
//   - Sampling is observation-only. A probe is a read-only func() int64; the
//     Sampler never mutates simulator state, touches an RNG stream, or holds
//     a packet. Sampler events consume engine sequence numbers, but sequence
//     assignment is monotone in scheduling order, so the relative order of
//     all non-sampler events — and therefore every golden figure and
//     determinism fingerprint — is bit-identical with sampling on or off
//     (harness tests pin this).
//   - The steady-state tick is allocation-free. Series buffers are sized
//     once at construction; each tick performs indexed stores only, and the
//     rearm reuses the engine's pooled event structs. The hotpath analyzer
//     covers Sampler.OnEvent like any other event handler, and a benchmark
//     asserts 0 allocs/op. Recording an event is likewise one indexed store
//     into the preallocated EventLog.
//
// The topology layer registers the standard probe set (switch shared-pool
// occupancy, per-port queue depth and pause state, DCQCN rates, per-host
// sender state, RLB counters) and points every switch at the registry's
// event log via topo.AttachTelemetry; the harness attaches the recorded
// series and events to its Result when RunConfig.Telemetry is set.
package telemetry

import "fmt"

// Probe is one named time series source. Fn must be a pure read of simulator
// state: it is called once per sampling tick from the event loop and must
// not mutate anything or allocate.
type Probe struct {
	Name string
	Fn   func() int64
}

// Registry holds the probe set for one simulation in registration order,
// and its event log once one is requested. Registration is a cold-path,
// construction-time activity; the set must be complete before a Sampler is
// built from it.
type Registry struct {
	probes []Probe
	names  map[string]bool
	events *EventLog
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Register adds a probe. Duplicate names panic: they are programming errors
// in the wiring layer, and silently shadowing a series would corrupt every
// exporter keyed by name.
func (r *Registry) Register(name string, fn func() int64) {
	if name == "" || fn == nil {
		panic("telemetry: probe needs a name and a func")
	}
	if r.names[name] {
		panic(fmt.Sprintf("telemetry: duplicate probe %q", name))
	}
	r.names[name] = true
	r.probes = append(r.probes, Probe{Name: name, Fn: fn})
}

// Events returns the simulation's event log, allocating it on first use.
// Like the probe set, it must be requested before the Sampler is built: the
// Sampler's Recording carries the log it saw at construction.
func (r *Registry) Events() *EventLog {
	if r.events == nil {
		r.events = newEventLog()
	}
	return r.events
}

// Len returns the number of registered probes.
func (r *Registry) Len() int { return len(r.probes) }

// Names returns the probe names in registration order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.probes))
	for i, p := range r.probes {
		out[i] = p.Name
	}
	return out
}
