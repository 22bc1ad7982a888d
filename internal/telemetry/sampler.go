package telemetry

import (
	"github.com/rlb-project/rlb/internal/sim"
)

// evTick is the only event code the sampler schedules.
const evTick = 0

// Sampler drives a Registry's probes at a fixed simulated-time interval.
// All series storage is allocated at construction; once Start has run, the
// per-tick path (OnEvent → sample → rearm) performs indexed stores into the
// preallocated buffers and reuses the engine's pooled event structs, so the
// steady state allocates nothing. Ticks past capacity are counted in Dropped
// and otherwise ignored — the run is never perturbed by a short buffer.
type Sampler struct {
	eng      *sim.Engine
	interval sim.Time

	names  []string
	fns    []func() int64
	events *EventLog // nil when no event log was requested

	times []sim.Time
	cols  [][]int64 // cols[j][i] = probe j at tick i; parallel to names
	n     int       // ticks recorded
	drop  int       // ticks discarded after the buffers filled

	running bool
	timer   sim.Timer
}

// NewSampler builds a sampler over the registry's current probe set with
// room for capacity ticks. The probe list is snapshotted: probes registered
// after this call are not sampled. Interval must be positive and capacity
// non-negative.
func NewSampler(eng *sim.Engine, reg *Registry, interval sim.Time, capacity int) *Sampler {
	if interval <= 0 {
		panic("telemetry: sample interval must be positive")
	}
	if capacity < 0 {
		panic("telemetry: negative capacity")
	}
	s := &Sampler{
		eng:      eng,
		interval: interval,
		names:    make([]string, len(reg.probes)),
		fns:      make([]func() int64, len(reg.probes)),
		times:    make([]sim.Time, capacity),
		cols:     make([][]int64, len(reg.probes)),
		events:   reg.events,
	}
	for j, p := range reg.probes {
		s.names[j] = p.Name
		s.fns[j] = p.Fn
		s.cols[j] = make([]int64, capacity)
	}
	return s
}

// Start records the first tick at the current virtual time and arms the
// periodic timer. Starting an already-running sampler panics.
func (s *Sampler) Start() {
	if s.running {
		panic("telemetry: sampler already started")
	}
	s.running = true
	s.sample()
	s.arm()
}

// Stop halts sampling. Recorded ticks stay available via Recording. Safe to
// call on a never-started or already-stopped sampler.
func (s *Sampler) Stop() {
	s.running = false
	s.timer.Stop()
	s.timer = sim.Timer{}
}

// OnEvent is the periodic tick: record one sample and rearm.
func (s *Sampler) OnEvent(arg sim.EventArg) {
	if !s.running {
		return
	}
	s.sample()
	s.arm()
}

// sample records one tick, or counts it as dropped when the preallocated
// buffers are full.
func (s *Sampler) sample() {
	if s.n == len(s.times) {
		s.drop++
		return
	}
	s.times[s.n] = s.eng.Now()
	for j := range s.fns {
		s.cols[j][s.n] = s.fns[j]()
	}
	s.n++
}

// arm schedules the next tick.
func (s *Sampler) arm() {
	s.timer = s.eng.ScheduleAfter(s.interval, s, sim.EventArg{U64: evTick})
}

// Samples returns the number of ticks recorded so far.
func (s *Sampler) Samples() int { return s.n }

// Dropped returns the number of ticks discarded because capacity was reached.
func (s *Sampler) Dropped() int { return s.drop }

// Recording is an immutable view of a sampler's recorded series and events,
// the form carried on harness results and consumed by the exporters.
type Recording struct {
	Interval      sim.Time   // tick spacing
	Names         []string   // probe names, registration order
	Times         []sim.Time // tick timestamps, length == number of ticks
	Series        [][]int64  // Series[j][i] = probe j at tick i; parallel to Names
	Dropped       int        // ticks lost to capacity
	Events        []Event    // the first EventCap events, in emission order
	EventsDropped int        // events lost to EventCap
}

// Recording snapshots the recorded series and events. The returned slices
// alias the sampler's buffers truncated to the recorded length; call after
// Stop.
func (s *Sampler) Recording() *Recording {
	rec := &Recording{
		Interval: s.interval,
		Names:    s.names,
		Times:    s.times[:s.n],
		Series:   make([][]int64, len(s.cols)),
		Dropped:  s.drop,
	}
	for j, col := range s.cols {
		rec.Series[j] = col[:s.n]
	}
	if s.events != nil {
		rec.Events = s.events.buf[:s.events.n]
		rec.EventsDropped = s.events.drop
	}
	return rec
}
