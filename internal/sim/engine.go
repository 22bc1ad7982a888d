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

	// h runs with arg at dispatch; closure events carry an eventFunc.
	h   Handler
	arg EventArg

	// dead marks a lazily cancelled event: Timer.Stop flips it in O(1) and
	// the run loop returns the struct to the pool when the scheduler pops
	// it, instead of paying for an arbitrary-position removal at Stop time.
	dead bool
}

// eventFunc adapts a closure to Handler, so closure events ride the typed
// path. A func value is one pointer word, so boxing it allocates nothing.
type eventFunc func()

func (f eventFunc) OnEvent(EventArg) { f() }

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

// Schedule runs h.OnEvent(arg) at absolute virtual time t. This is the
// allocation-free path: handler and payload are stored in a pooled event.
// Scheduling in the past panics: it would silently reorder causality.
func (e *Engine) Schedule(t Time, h Handler, arg EventArg) Timer {
	if t < e.now {
		panic("sim: scheduling event in the past")
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.h = h
	ev.arg = arg
	if e.cal != nil {
		e.cal.push(ev, e.now)
	} else {
		e.sched.push(ev, e.now)
	}
	e.live++
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
	return e.Schedule(t, eventFunc(fn), EventArg{})
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) Timer {
	return e.ScheduleAfter(d, eventFunc(fn), EventArg{})
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
		// Free the slot before dispatching: the handler may immediately
		// schedule again and reuse it, and its own Timer handle (now stale by
		// generation) can no longer cancel the reused slot.
		h, arg := ev.h, ev.arg
		e.release(ev)
		e.Executed++
		h.OnEvent(arg)
	}
	if !e.stopped && limit != MaxTime && e.now < limit {
		e.now = limit
	}
	return e.now
}
