package sim

import (
	"math/rand"
	"testing"
)

// driveScheduler runs a seeded random schedule/cancel/run workload against an
// engine with the given scheduler kind and returns the exact fire log
// (id@time per event, in dispatch order).
func driveScheduler(kind SchedulerKind, seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	e := NewEngineWith(kind)
	rec := &seqRecorder{eng: e}
	var live []Timer
	var nextID uint64
	// Delay mix chosen around the calendar geometry: zero (same-instant),
	// sub-bucket, a few buckets, straddling the 2^24 ps wheel horizon, and
	// deep overflow — every placement and migration path gets traffic.
	delay := func() Time {
		switch r.Intn(5) {
		case 0:
			return 0
		case 1:
			return Time(r.Intn(100))
		case 2:
			return Time(r.Intn(1 << 18))
		case 3:
			return Time(r.Intn(1 << 25))
		default:
			return Time(r.Intn(1 << 28))
		}
	}
	for op := 0; op < 4000; op++ {
		switch r.Intn(6) {
		case 0, 1: // schedule one event
			tm := e.Schedule(e.Now()+delay(), rec, EventArg{U64: nextID})
			nextID++
			live = append(live, tm)
		case 2: // same-timestamp burst: FIFO among equals must survive
			at := e.Now() + delay()
			for k := 0; k < 1+r.Intn(8); k++ {
				tm := e.Schedule(at, rec, EventArg{U64: nextID})
				nextID++
				live = append(live, tm)
			}
		case 3: // lazy-cancel a random handle (possibly already stale)
			if len(live) > 0 {
				live[r.Intn(len(live))].Stop()
			}
		case 4: // partial drain to an arbitrary limit
			e.RunUntil(e.Now() + delay())
		case 5: // occasional full drain, exercising re-anchoring after idle
			if r.Intn(8) == 0 {
				e.Run()
			}
		}
	}
	e.Run()
	return rec.log
}

// TestSchedulerEquivalence is the determinism property test for the
// tentpole: under seeded random schedule/cancel/run workloads — including
// same-timestamp bursts, partial drains, and far-future overflow events —
// the calendar queue must produce a fire log bit-identical to the reference
// binary heap's. Golden figures are protected by construction: any ordering
// divergence between the two schedulers fails here first.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		hLog := driveScheduler(SchedHeap, seed)
		cLog := driveScheduler(SchedCalendar, seed)
		if len(hLog) != len(cLog) {
			t.Fatalf("seed %d: heap fired %d events, calendar %d", seed, len(hLog), len(cLog))
		}
		for i := range hLog {
			if hLog[i] != cLog[i] {
				t.Fatalf("seed %d: pop order diverged at %d: heap %s, calendar %s", seed, i, hLog[i], cLog[i])
			}
		}
	}
}

// firing is one dispatched (at, seq) key.
type firing struct {
	at  Time
	seq uint64
}

// keyLog records the (at, seq) key of every fire. Each event carries its own
// seq in EventArg.U64, read from the engine's counter when it is scheduled.
type keyLog struct {
	eng  *Engine
	keys []firing
}

func (l *keyLog) OnEvent(arg EventArg) { l.keys = append(l.keys, firing{l.eng.Now(), arg.U64}) }

// add schedules one logged event at t.
func (l *keyLog) add(t Time) Timer { return l.eng.Schedule(t, l, EventArg{U64: l.eng.seq}) }

// slotGroup is a ticker in miniature: slots reserved for one instant, each
// "sampled" in seq order by one handler that yields, by queuing itself into
// the next slot, whenever another event is queued ahead of that slot.
type slotGroup struct {
	log    *keyLog
	slots  []Slot
	next   int
	yields int
}

func (g *slotGroup) OnEvent(EventArg) {
	e := g.log.eng
	for i := g.next; i < len(g.slots); i++ {
		s := g.slots[i]
		if i > g.next && e.QueuedBefore(s) {
			g.next = i
			g.yields++
			e.ScheduleSlot(s, g, EventArg{})
			return
		}
		g.log.keys = append(g.log.keys, firing{e.Now(), s.seq})
		// Work a sample triggers at its own instant queues behind every
		// slot reserved earlier.
		g.log.add(e.Now())
	}
}

// driveSlots runs a seeded workload aimed at the ordered bucket runs and at
// reserved slots: same-instant clusters of 64 to 96 events, pushes in random
// order into one bucket ahead of the cursor, slots reserved early and
// scheduled into later, and slot groups whose events interleave with plain
// events at the same instant (some lazily cancelled), so the group yields at
// the current instant. It returns every dispatched key in order and the
// number of yields.
func driveSlots(kind SchedulerKind, seed int64) ([]firing, int) {
	r := rand.New(rand.NewSource(seed))
	e := NewEngineWith(kind)
	log := &keyLog{eng: e}
	var parked []Slot
	yields := 0
	var groups []*slotGroup
	ahead := func() Time {
		switch r.Intn(4) {
		case 0:
			return 0
		case 1:
			return Time(r.Intn(int(cwWidth)))
		case 2:
			return Time(r.Intn(int(cwSpan)))
		default:
			return Time(r.Intn(int(4 * cwSpan)))
		}
	}
	for op := 0; op < 600; op++ {
		switch r.Intn(7) {
		case 0: // same-instant cluster
			at := e.Now() + ahead()
			for k := 0; k < 64+r.Intn(33); k++ {
				log.add(at)
			}
		case 1: // random-order pushes into one bucket ahead of the cursor
			base := (e.Now()/cwWidth + 1 + Time(r.Intn(4))) * cwWidth
			for k := 0; k < 8+r.Intn(40); k++ {
				log.add(base + Time(r.Intn(int(cwWidth))))
			}
		case 2: // reserve a slot now, schedule into it later
			parked = append(parked, e.Reserve(e.Now()+ahead()))
		case 3: // schedule a parked slot the run has not reached
			for i, s := range parked {
				if s.at > e.Now() {
					e.ScheduleSlot(s, log, EventArg{U64: s.seq})
					parked = append(parked[:i], parked[i+1:]...)
					break
				}
			}
		case 4: // slot group interleaved with plain events at its instant
			at := e.Now() + ahead()
			g := &slotGroup{log: log}
			for k := 0; k < 2+r.Intn(6); k++ {
				g.slots = append(g.slots, e.Reserve(at))
				for j := r.Intn(3); j > 0; j-- {
					if tm := log.add(at); r.Intn(3) == 0 {
						tm.Stop()
					}
				}
			}
			e.ScheduleSlot(g.slots[0], g, EventArg{})
			groups = append(groups, g)
		case 5:
			e.RunUntil(e.Now() + ahead())
		case 6:
			if r.Intn(8) == 0 {
				e.Run()
			}
		}
	}
	e.Run()
	for _, g := range groups {
		yields += g.yields
	}
	return log.keys, yields
}

// TestSchedulerSlotEquivalence extends the equivalence property to the
// calendar's ordered bucket runs and to reserved slots: both schedulers must
// dispatch identical (at, seq) sequences, and that sequence must be strictly
// increasing, since every event pushed or scheduled into a slot keys after
// the one being dispatched.
func TestSchedulerSlotEquivalence(t *testing.T) {
	totalYields := 0
	for seed := int64(1); seed <= 20; seed++ {
		hLog, hYields := driveSlots(SchedHeap, seed)
		cLog, cYields := driveSlots(SchedCalendar, seed)
		if len(hLog) != len(cLog) || hYields != cYields {
			t.Fatalf("seed %d: heap fired %d keys with %d yields, calendar %d with %d",
				seed, len(hLog), hYields, len(cLog), cYields)
		}
		for i := range hLog {
			if hLog[i] != cLog[i] {
				t.Fatalf("seed %d: dispatch order diverged at %d: heap %+v, calendar %+v", seed, i, hLog[i], cLog[i])
			}
			if i > 0 {
				prev, cur := cLog[i-1], cLog[i]
				if cur.at < prev.at || cur.at == prev.at && cur.seq <= prev.seq {
					t.Fatalf("seed %d: key %+v dispatched after %+v", seed, cur, prev)
				}
			}
		}
		totalYields += cYields
	}
	if totalYields == 0 {
		t.Fatal("no slot group ever yielded; the workload misses the current-instant case")
	}
}

// TestScheduleSlotPanicsOncePassed pins the slot contract: scheduling into a
// slot the run has dispatched past panics, as scheduling in the past does,
// while a slot still ahead at the current instant is accepted.
func TestScheduleSlotPanicsOncePassed(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	e := NewEngine()
	var h nopHandler
	a, b, c := e.Reserve(10), e.Reserve(10), e.Reserve(10)
	e.ScheduleSlot(b, handlerFunc(func(EventArg) {
		mustPanic("earlier slot at the current instant", func() { e.ScheduleSlot(a, h, EventArg{}) })
		mustPanic("the dispatching slot itself", func() { e.ScheduleSlot(b, h, EventArg{}) })
		e.ScheduleSlot(c, h, EventArg{}) // still ahead: must not panic
	}), EventArg{})
	e.RunUntil(20)
	if e.Pending() != 0 || e.Now() != 20 {
		t.Fatalf("Pending = %d, Now = %v after the run", e.Pending(), e.Now())
	}
	mustPanic("slot before the clock", func() { e.ScheduleSlot(c, h, EventArg{}) })
	mustPanic("reserve before the clock", func() { e.Reserve(19) })
	e.ScheduleSlot(e.Reserve(20), h, EventArg{}) // the clock stands at 20, nothing ran there
	e.Run()
}

// TestCalendarFarFutureRollover pins the overflow path directly: events
// beyond the wheel horizon migrate onto the wheel in order as the cursor
// rolls, and FIFO among same-instant overflow events survives migration.
func TestCalendarFarFutureRollover(t *testing.T) {
	e := NewEngine()
	var order []uint64
	rec := handlerFunc(func(arg EventArg) { order = append(order, arg.U64) })
	e.Schedule(cwSpan*3+Time(5), rec, EventArg{U64: 2})
	e.Schedule(cwSpan*3+Time(5), rec, EventArg{U64: 3})
	e.Schedule(Time(7), rec, EventArg{U64: 0})
	e.Schedule(cwSpan+Time(1), rec, EventArg{U64: 1})
	e.Run()
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("order = %v, want 0,1,2,3", order)
		}
	}
	if e.Now() != cwSpan*3+Time(5) {
		t.Fatalf("Now = %v", e.Now())
	}
}

// TestCalendarRunUntilParksBeforeFarEvent pins the cursor-parking guard: a
// RunUntil that stops short of a far-future event must leave the queue in a
// state where new near-term events still fire first, in order.
func TestCalendarRunUntilParksBeforeFarEvent(t *testing.T) {
	e := NewEngine()
	var order []uint64
	rec := handlerFunc(func(arg EventArg) { order = append(order, arg.U64) })
	far := cwSpan * 2
	e.Schedule(far, rec, EventArg{U64: 2})
	e.RunUntil(cwWidth * 3) // parks well before the far event
	if len(order) != 0 {
		t.Fatalf("fired early: %v", order)
	}
	// New events inside the already-traversed region must not alias onto a
	// later wheel lap.
	e.Schedule(e.Now()+Time(1), rec, EventArg{U64: 0})
	e.Schedule(e.Now()+cwWidth, rec, EventArg{U64: 1})
	e.Run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("order = %v, want 0,1,2", order)
	}
}

// TestEventPoolConservation checks gets == puts + queued across a mixed
// fire/cancel workload, the invariant the event-pool audit enforces at the
// end of every simulation.
func TestEventPoolConservation(t *testing.T) {
	for _, kind := range []SchedulerKind{SchedCalendar, SchedHeap} {
		e := NewEngineWith(kind)
		var h nopHandler
		var timers []Timer
		for i := 0; i < 500; i++ {
			timers = append(timers, e.ScheduleAfter(Time(i%50)*cwWidth, h, EventArg{}))
		}
		for i := 0; i < len(timers); i += 3 {
			timers[i].Stop()
		}
		gets, puts, queued := e.EventPoolStats()
		if gets != puts+uint64(queued) {
			t.Fatalf("%v mid-run: gets=%d puts=%d queued=%d", kind, gets, puts, queued)
		}
		e.Run()
		gets, puts, queued = e.EventPoolStats()
		if queued != 0 || gets != puts {
			t.Fatalf("%v drained: gets=%d puts=%d queued=%d", kind, gets, puts, queued)
		}
		if e.Pending() != 0 {
			t.Fatalf("%v drained: Pending = %d", kind, e.Pending())
		}
	}
}

// BenchmarkEngineScheduleCancel is the schedule/cancel-heavy workload: every
// iteration arms two timers and lazily cancels one, the pattern transport
// RTO and pacer timers produce. Tracks the cost of dead-event skip +
// reclamation; must stay 0 allocs/op once warm.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	var h nopHandler
	for i := 0; i < 2048; i++ {
		e.ScheduleAfter(Time(i%1000), h, EventArg{U64: uint64(i)})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(Time(1+i%1000), h, EventArg{})
		dead := e.ScheduleAfter(Time(2000+i%1000), h, EventArg{})
		dead.Stop()
		if e.Pending() > 5000 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineBucketRollover spreads events across several wheel laps so
// the measured cost includes cursor advancement, bitmap scans, and
// overflow-heap migration — the paths BenchmarkEngineDispatchTyped (which
// stays inside one bucket) never touches.
func BenchmarkEngineBucketRollover(b *testing.B) {
	e := NewEngine()
	var h nopHandler
	x := uint64(1)
	spread := func() Time {
		x = x*6364136223846793005 + 1442695040888963407
		return Time(x % uint64(cwSpan*4))
	}
	for i := 0; i < 4096; i++ {
		e.ScheduleAfter(spread(), h, EventArg{})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(spread(), h, EventArg{})
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineSameInstantCluster drives clusters of 64 events due at one
// instant, the shape of a synchronized incast or of every port reacting to
// one PAUSE: each cluster is pushed 2 µs ahead while the clusters before it
// drain, so about 20 clusters of one bucket each stay queued. One op is one
// event scheduled and dispatched; it must stay 0 allocs/op once warm. The
// heap sub-benchmark is the reference scheduler on the same load.
func BenchmarkEngineSameInstantCluster(b *testing.B) {
	for _, kind := range []SchedulerKind{SchedCalendar, SchedHeap} {
		b.Run(kind.String(), func(b *testing.B) {
			e := NewEngineWith(kind)
			var h nopHandler
			var at Time
			push := func(i int) {
				if i%64 == 0 {
					e.RunUntil(e.Now() + 100*Nanosecond)
					at = e.Now() + 2*Microsecond
				}
				e.Schedule(at, h, EventArg{})
			}
			for i := 0; i < 64*64; i++ {
				push(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				push(i)
			}
			e.Run()
		})
	}
}
