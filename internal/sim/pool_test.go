package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// recorder is a typed handler that logs (scalar payload, fire time) pairs.
type recorder struct {
	fired [][2]uint64
}

func (r *recorder) OnEvent(arg EventArg) {
	r.fired = append(r.fired, [2]uint64{arg.U64, 0})
}

func TestZeroTimerIsSafe(t *testing.T) {
	var tm Timer
	if tm.Stop() {
		t.Error("zero Timer Stop reported true")
	}
	if tm.Pending() {
		t.Error("zero Timer Pending reported true")
	}
	if tm.When() != 0 {
		t.Errorf("zero Timer When = %v, want 0", tm.When())
	}
}

func TestTimerWhenAfterStopAndFire(t *testing.T) {
	e := NewEngine()
	tm := e.At(42, func() {})
	if tm.When() != 42 {
		t.Fatalf("pending When = %v, want 42", tm.When())
	}
	tm.Stop()
	if tm.When() != 0 {
		t.Errorf("stopped When = %v, want 0", tm.When())
	}
	tm2 := e.At(10, func() {})
	e.Run()
	if tm2.When() != 0 {
		t.Errorf("fired When = %v, want 0", tm2.When())
	}
	if tm2.Pending() {
		t.Error("fired timer still pending")
	}
}

// TestStaleTimerCannotCancelReusedEvent is the generation-counter contract:
// after an event fires, its struct returns to the pool; a handle to the old
// event must not cancel whichever event reuses the slot.
func TestStaleTimerCannotCancelReusedEvent(t *testing.T) {
	e := NewEngine()
	first := e.At(10, func() {})
	e.Run()
	if first.Pending() {
		t.Fatal("fired timer reports pending")
	}
	// The next schedule reuses the pooled event struct.
	fired := false
	second := e.At(20, func() { fired = true })
	if first.ev != second.ev {
		t.Fatal("test premise broken: event struct was not reused")
	}
	if first.Stop() {
		t.Error("stale handle cancelled a reused event")
	}
	if !second.Pending() {
		t.Error("live timer lost by stale Stop")
	}
	e.Run()
	if !fired {
		t.Error("reused event did not fire")
	}
}

func TestStopReturnsEventToPool(t *testing.T) {
	e := NewEngine()
	tm := e.At(10, func() {})
	ev := tm.ev
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Error("double Stop reported true")
	}
	// Cancellation is lazy: the dead event stays queued until the run loop
	// skips it, and only then does its struct return to the free list.
	gets, puts, queued := e.EventPoolStats()
	if queued != 1 || gets != puts+1 {
		t.Fatalf("before reclamation: gets=%d puts=%d queued=%d, want 1 outstanding", gets, puts, queued)
	}
	e.Run()
	gets, puts, queued = e.EventPoolStats()
	if queued != 0 || gets != puts {
		t.Fatalf("after reclamation: gets=%d puts=%d queued=%d, want conservation", gets, puts, queued)
	}
	if e.Now() != 0 {
		t.Errorf("skipping a dead event advanced the clock to %v, want 0", e.Now())
	}
	tm2 := e.At(20, func() {})
	if tm2.ev != ev {
		t.Error("reclaimed event was not pooled for reuse")
	}
	tm2.Stop()
}

func TestTypedScheduleDispatch(t *testing.T) {
	e := NewEngine()
	r := &recorder{}
	e.Schedule(30, r, EventArg{U64: 3})
	e.Schedule(10, r, EventArg{U64: 1})
	tm := e.ScheduleAfter(20, r, EventArg{U64: 2})
	if tm.When() != 20 {
		t.Fatalf("When = %v, want 20", tm.When())
	}
	e.Run()
	if len(r.fired) != 3 || r.fired[0][0] != 1 || r.fired[1][0] != 2 || r.fired[2][0] != 3 {
		t.Fatalf("fired = %v", r.fired)
	}
}

func TestTypedScheduleCarriesPointerPayload(t *testing.T) {
	e := NewEngine()
	type payload struct{ x int }
	p := &payload{x: 7}
	var got *payload
	h := handlerFunc(func(arg EventArg) { got = arg.Ptr.(*payload) })
	e.Schedule(5, h, EventArg{Ptr: p})
	e.Run()
	if got != p {
		t.Fatalf("payload pointer not delivered: got %p want %p", got, p)
	}
}

// handlerFunc adapts a func to Handler for tests.
type handlerFunc func(EventArg)

func (f handlerFunc) OnEvent(arg EventArg) { f(arg) }

// seqRecorder logs (id, time) of every fire for replay comparison.
type seqRecorder struct {
	log []string
	eng *Engine
}

func (r *seqRecorder) OnEvent(arg EventArg) {
	r.log = append(r.log, fmt.Sprintf("%d@%d", arg.U64, int64(r.eng.Now())))
}

// runInterleaved drives one randomized At/Stop/fire interleaving and returns
// the exact fire log plus which ids were successfully cancelled.
func runInterleaved(seed int64) (log []string, cancelled map[uint64]bool) {
	r := rand.New(rand.NewSource(seed))
	e := NewEngine()
	rec := &seqRecorder{eng: e}
	type handle struct {
		id uint64
		tm Timer
	}
	var live []handle
	cancelled = make(map[uint64]bool)
	var nextID uint64
	for op := 0; op < 2000; op++ {
		switch r.Intn(4) {
		case 0, 1: // schedule
			id := nextID
			nextID++
			tm := e.Schedule(e.Now()+Time(r.Intn(500)), rec, EventArg{U64: id})
			live = append(live, handle{id: id, tm: tm})
		case 2: // stop a random handle (possibly stale)
			if len(live) == 0 {
				continue
			}
			h := live[r.Intn(len(live))]
			if h.tm.Stop() {
				cancelled[h.id] = true
			}
		case 3: // advance the clock, firing a prefix of the queue
			e.RunUntil(e.Now() + Time(r.Intn(200)))
		}
	}
	e.Run()
	return rec.log, cancelled
}

// TestEventPoolInterleavedStopNeverFiresStale is the satellite property test:
// under random At/Stop/fire interleavings with aggressive event-struct reuse,
// (a) no cancelled event ever fires, (b) every non-cancelled event fires
// exactly once, and (c) the whole schedule replays byte-identically per seed.
func TestEventPoolInterleavedStopNeverFiresStale(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		log1, cancelled := runInterleaved(seed)
		fired := make(map[string]int)
		firedID := make(map[uint64]bool)
		for _, entry := range log1 {
			fired[entry]++
			var id uint64
			fmt.Sscanf(entry, "%d@", &id)
			firedID[id] = true
		}
		for entry, n := range fired {
			if n > 1 {
				t.Fatalf("seed %d: event %s fired %d times", seed, entry, n)
			}
		}
		for id := range cancelled {
			if firedID[id] {
				t.Fatalf("seed %d: cancelled event %d fired (stale generation)", seed, id)
			}
		}
		// Replay: identical seed must yield an identical fire sequence.
		log2, _ := runInterleaved(seed)
		if len(log1) != len(log2) {
			t.Fatalf("seed %d: replay fired %d events, first run %d", seed, len(log2), len(log1))
		}
		for i := range log1 {
			if log1[i] != log2[i] {
				t.Fatalf("seed %d: replay diverged at %d: %s vs %s", seed, i, log1[i], log2[i])
			}
		}
	}
}

// nopHandler is the benchmark handler: typed dispatch with no work.
type nopHandler struct{}

func (nopHandler) OnEvent(EventArg) {}

// TestEngineDispatchZeroAlloc is the bench-smoke assertion: once the pool is
// warm, scheduling and dispatching typed events performs zero heap
// allocations per event, and so does a closure event whose func() is built
// beforehand (only capturing a fresh closure allocates).
func TestEngineDispatchZeroAlloc(t *testing.T) {
	e := NewEngine()
	var h nopHandler
	// Warm the event pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		e.ScheduleAfter(Time(i), h, EventArg{U64: uint64(i)})
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.ScheduleAfter(10, h, EventArg{})
		e.ScheduleAfter(20, h, EventArg{})
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("typed schedule+dispatch allocated %.1f objects per op, want 0", allocs)
	}
	fired := 0
	fn := func() { fired++ }
	allocs = testing.AllocsPerRun(1000, func() {
		e.After(10, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("closure schedule+dispatch allocated %.1f objects per op, want 0", allocs)
	}
	if fired != 1001 {
		t.Fatalf("closure fired %d times, want 1001", fired)
	}
}

// BenchmarkEngineDispatchTyped measures the pooled typed-event hot path;
// `make bench-smoke` runs it with -benchmem to show its ns/op and
// 0 allocs/op.
func BenchmarkEngineDispatchTyped(b *testing.B) {
	e := NewEngine()
	var h nopHandler
	// Reach steady state first: grow the scheduler's backing arrays and the
	// event free list to their working size so the loop measures pure
	// dispatch.
	for i := 0; i < 10001; i++ {
		e.ScheduleAfter(Time(i%1000), h, EventArg{U64: uint64(i)})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(Time(i%1000), h, EventArg{U64: uint64(i)})
		if e.Pending() > 10000 {
			e.Run()
		}
	}
	e.Run()
}
