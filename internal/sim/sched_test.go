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

// echo logs its own key, then queues one more logged event at the current
// instant, into the bucket being drained.
type echo struct{ log *keyLog }

func (h echo) OnEvent(arg EventArg) {
	h.log.OnEvent(arg)
	h.log.add(h.log.eng.Now())
}

// driveClusters runs a seeded workload aimed at the ordered bucket runs:
// same-instant clusters of 64 to 96 events, pushes in random order into one
// bucket ahead of the cursor, and same-instant events some of which are
// lazily cancelled and some of which queue another event at their own
// instant. It returns every dispatched key in order.
func driveClusters(kind SchedulerKind, seed int64) []firing {
	r := rand.New(rand.NewSource(seed))
	e := NewEngineWith(kind)
	log := &keyLog{eng: e}
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
		switch r.Intn(5) {
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
		case 2: // same-instant events, some cancelled, some echoing
			at := e.Now() + ahead()
			for k := 0; k < 2+r.Intn(12); k++ {
				switch r.Intn(3) {
				case 0:
					log.add(at).Stop()
				case 1:
					e.Schedule(at, echo{log}, EventArg{U64: e.seq})
				default:
					log.add(at)
				}
			}
		case 3:
			e.RunUntil(e.Now() + ahead())
		case 4:
			if r.Intn(8) == 0 {
				e.Run()
			}
		}
	}
	e.Run()
	return log.keys
}

// TestSchedulerClusterEquivalence extends the equivalence property to the
// calendar's ordered bucket runs: both schedulers must dispatch identical
// (at, seq) sequences, and that sequence must be strictly increasing, since
// every event keys after the one being dispatched when it is pushed.
func TestSchedulerClusterEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		hLog := driveClusters(SchedHeap, seed)
		cLog := driveClusters(SchedCalendar, seed)
		if len(hLog) != len(cLog) {
			t.Fatalf("seed %d: heap fired %d keys, calendar %d", seed, len(hLog), len(cLog))
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
	}
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
