package sim

// Handler is a typed event callback: the scheduled component itself (or a
// small adapter owned by it) implements OnEvent and receives the payload it
// packed at schedule time. Scheduling a Handler allocates nothing on the
// steady-state hot path: the interface value is two words copied into a
// pooled event struct, unlike a closure, which heap-allocates its capture.
type Handler interface {
	OnEvent(arg EventArg)
}

// EventArg is the payload carried by a typed event: one pointer word (e.g.
// the *fabric.Packet in flight) and one scalar word (an event code, port
// index, priority class — whatever the handler packed). Both are optional.
type EventArg struct {
	Ptr any
	U64 uint64
}

// event is a scheduled callback. Events are ordered by (at, seq) where seq is
// the scheduling order, guaranteeing FIFO execution among same-time events.
// Event structs are pooled on the engine's free list; gen increments on every
// release so stale Timer handles can never cancel or inspect a reused slot.
type event struct {
	at  Time
	seq uint64
	gen uint64

	// h/arg is the typed fast path; fn is the closure fallback used by the
	// cold-path At/After API. Exactly one of h and fn is set.
	h   Handler
	arg EventArg
	fn  func()

	// dead marks a lazily cancelled event: Timer.Stop flips it in O(1) and
	// the run loop returns the struct to the pool when the scheduler pops
	// it, instead of paying for an arbitrary-position removal at Stop time.
	dead bool
}

// Timer is a value handle to a scheduled event. The zero Timer is valid and
// behaves like an already-stopped one: Stop and Pending report false, When
// returns 0. Handles stay safe after the event fires and its struct is
// reused — the generation check makes a stale Stop a no-op instead of
// cancelling whatever event now occupies the slot.
type Timer struct {
	ev  *event
	eng *Engine
	gen uint64
}

// live reports whether the handle still refers to the queued event it was
// created for.
func (t Timer) live() bool {
	return t.ev != nil && t.ev.gen == t.gen && !t.ev.dead
}

// Stop cancels the timer. It reports whether the timer was still pending.
// Stopping a zero, already-fired, or already-stopped timer is a no-op.
// Cancellation is lazy: the event stays queued, marked dead, and its struct
// returns to the pool when the run loop skips over it.
func (t Timer) Stop() bool {
	if !t.live() {
		return false
	}
	t.ev.dead = true
	t.eng.live--
	return true
}

// Pending reports whether the timer has not yet fired or been stopped.
func (t Timer) Pending() bool { return t.live() }

// When returns the virtual time at which the timer fires, or 0 for a zero,
// fired, or stopped handle.
func (t Timer) When() Time {
	if !t.live() {
		return 0
	}
	return t.ev.at
}

// Engine is a single-threaded discrete-event scheduler. The zero value is not
// usable; create engines with NewEngine or NewEngineWith.
type Engine struct {
	now   Time
	sched scheduler
	// cal devirtualizes the default scheduler: when non-nil it is the same
	// object as sched, and the per-event push/pop sites call it directly
	// instead of through the interface (two indirect calls per event add up
	// at tens of millions of events per second).
	cal     *calendarQueue
	seq     uint64
	stopped bool

	// cutoff is one past the seq of the event dispatched last while the
	// clock still stands at its time, and 0 once the clock has moved on: a
	// slot at the current instant with a seq below cutoff has been passed.
	cutoff uint64

	// live counts queued events that have not been lazily cancelled; the
	// scheduler's own length additionally includes dead events awaiting
	// reclamation.
	live int

	// free is the event free list: fired and cancelled events return here and
	// are reused by the next schedule, so the steady-state hot path performs
	// zero heap allocations. gets/puts count the traffic for the event-pool
	// conservation audit: gets == puts + events still queued.
	free       []*event
	gets, puts uint64

	// Executed counts events dispatched so far; harness.Result.Events and
	// the benchmark's sim.events report it.
	Executed uint64
}

// NewEngine returns an engine with the clock at zero, using the default
// calendar-queue scheduler.
func NewEngine() *Engine { return NewEngineWith(SchedCalendar) }

// NewEngineWith returns an engine with the clock at zero and the given
// scheduler implementation behind it.
func NewEngineWith(kind SchedulerKind) *Engine {
	e := &Engine{sched: newScheduler(kind)}
	e.cal, _ = e.sched.(*calendarQueue)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an event from the free list, or grows the pool by one.
func (e *Engine) alloc() *event {
	e.gets++
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	//simlint:allow(hotpath) free-list miss grows the event pool once; steady state recycles events (0 allocs/op, bench-gated)
	return &event{}
}

// release returns a dequeued event to the free list, bumping its generation
// so outstanding Timer handles go stale.
func (e *Engine) release(ev *event) {
	ev.gen++
	ev.dead = false
	ev.h = nil
	ev.arg = EventArg{}
	ev.fn = nil
	e.puts++
	//simlint:allow(hotpath) the free list never outgrows the event pool, and it keeps its capacity
	e.free = append(e.free, ev)
}

// EventPoolStats reports the event free-list traffic and the number of event
// structs still queued, live or dead. The conservation invariant audited by
// internal/invariant is gets == puts + queued: every struct handed out was
// either returned to the pool or is still in the scheduler.
func (e *Engine) EventPoolStats() (gets, puts uint64, queued int) {
	return e.gets, e.puts, e.sched.len()
}

// schedule inserts an event at absolute time t. Scheduling in the past
// panics: it would silently reorder causality.
func (e *Engine) schedule(t Time) *event {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := e.push(t, e.seq)
	e.seq++
	return ev
}

// push queues a pooled event under the key (at, seq).
func (e *Engine) push(at Time, seq uint64) *event {
	ev := e.alloc()
	ev.at = at
	ev.seq = seq
	if e.cal != nil {
		e.cal.push(ev, e.now)
	} else {
		e.sched.push(ev, e.now)
	}
	e.live++
	return ev
}

// Schedule runs h.OnEvent(arg) at absolute virtual time t. This is the
// allocation-free path: handler and payload are stored in a pooled event.
func (e *Engine) Schedule(t Time, h Handler, arg EventArg) Timer {
	ev := e.schedule(t)
	ev.h = h
	ev.arg = arg
	return Timer{ev: ev, eng: e, gen: ev.gen}
}

// ScheduleAfter runs h.OnEvent(arg) d after the current time.
func (e *Engine) ScheduleAfter(d Time, h Handler, arg EventArg) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.Schedule(e.now+d, h, arg)
}

// At schedules fn to run at absolute virtual time t. The closure API is for
// cold paths (workload generation, fault injection, tests); hot paths use
// Schedule, which avoids the closure capture allocation.
func (e *Engine) At(t Time, fn func()) Timer {
	ev := e.schedule(t)
	ev.fn = fn
	return Timer{ev: ev, eng: e, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now+d, fn)
}

// Slot is a reserved place in the event order: a time and a seq taken from
// the engine's schedule counter, with nothing queued. An event scheduled into
// the slot later runs exactly where an event scheduled at reservation time
// would have run, ahead of everything scheduled for the same instant after
// the reservation.
type Slot struct {
	at  Time
	seq uint64
}

// Reserve takes the next seq for time t without queuing anything. Reserving
// in the past panics, like scheduling there.
func (e *Engine) Reserve(t Time) Slot {
	if t < e.now {
		panic("sim: reserving a slot in the past")
	}
	s := Slot{at: t, seq: e.seq}
	e.seq++
	return s
}

// ScheduleSlot runs h.OnEvent(arg) at the exact (at, seq) key of slot s. It
// panics once the run has dispatched past the key, as scheduling in the past
// does. Scheduling the same slot twice queues two events with one key, and
// their relative order is unspecified.
func (e *Engine) ScheduleSlot(s Slot, h Handler, arg EventArg) Timer {
	if s.at < e.now || s.at == e.now && s.seq < e.cutoff {
		panic("sim: scheduling into a passed slot")
	}
	ev := e.push(s.at, s.seq)
	ev.h = h
	ev.arg = arg
	return Timer{ev: ev, eng: e, gen: ev.gen}
}

// QueuedBefore reports whether a live event is queued ahead of slot s, which
// must be at the current instant. Lazily cancelled events found ahead of the
// slot are reclaimed on the way, as the run loop would reclaim them.
func (e *Engine) QueuedBefore(s Slot) bool {
	if s.at != e.now {
		panic("sim: QueuedBefore needs a slot at the current instant")
	}
	for {
		var ev *event
		if e.cal != nil {
			ev = e.cal.peekNow(e.now)
		} else {
			ev = e.sched.peekNow(e.now)
		}
		if ev == nil || ev.seq >= s.seq {
			return false
		}
		if !ev.dead {
			return true
		}
		e.release(e.sched.popLE(e.now))
	}
}

// Stop halts the run loop after the currently executing event returns.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of queued events, not counting lazily
// cancelled ones still awaiting reclamation.
func (e *Engine) Pending() int { return e.live }

// Run executes events until the queue is empty or Stop is called. It returns
// the final virtual time.
func (e *Engine) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil executes events with timestamps <= limit, then advances the clock
// to limit (unless limit is MaxTime or Stop was called, in which case the
// clock stays at the last executed event).
func (e *Engine) RunUntil(limit Time) Time {
	e.stopped = false
	for !e.stopped {
		var ev *event
		if e.cal != nil {
			ev = e.cal.popLE(limit)
		} else {
			ev = e.sched.popLE(limit)
		}
		if ev == nil {
			break
		}
		if ev.dead {
			// Lazily cancelled: reclaim the struct without touching the
			// clock — a cancelled event must leave no trace in the run.
			e.release(ev)
			continue
		}
		e.live--
		e.now = ev.at
		e.cutoff = ev.seq + 1
		// Free the slot before dispatching: the handler may immediately
		// schedule again and reuse it, and its own Timer handle (now stale by
		// generation) can no longer cancel the reused slot.
		h, arg, fn := ev.h, ev.arg, ev.fn
		e.release(ev)
		switch {
		case h != nil:
			e.Executed++
			h.OnEvent(arg)
		case fn != nil:
			e.Executed++
			fn()
		}
	}
	if !e.stopped && limit != MaxTime && e.now < limit {
		e.now = limit
		e.cutoff = 0
	}
	return e.now
}
