package sim

import "math/bits"

// SchedulerKind selects the event-queue implementation behind an Engine. The
// zero value is the calendar queue, so zero-valued configs get the fast
// scheduler without opting in.
type SchedulerKind int

const (
	// SchedCalendar is the hierarchical calendar queue (default): a timing
	// wheel of (at, seq)-ordered bucket runs with a binary-heap overflow for
	// events beyond the wheel horizon.
	SchedCalendar SchedulerKind = iota
	// SchedHeap is the single binary min-heap, kept as the reference
	// implementation for A/B debugging and the equivalence property test.
	SchedHeap
)

func (k SchedulerKind) String() string {
	if k == SchedHeap {
		return "heap"
	}
	return "calendar"
}

// scheduler is the pluggable event queue behind an Engine. Implementations
// must yield events in exact (at, seq) order — the determinism of every
// figure rests on that contract, which the heap-vs-calendar property test
// pins bit-for-bit.
type scheduler interface {
	// push inserts ev at the engine clock now. The engine guarantees
	// ev.at >= now (no scheduling in the past), which lets implementations
	// keep a monotone cursor anchored at or before now.
	push(ev *event, now Time)
	// popLE removes and returns the earliest event iff its timestamp is at
	// most limit; it returns nil without dequeuing when the queue is empty
	// or the earliest event lies beyond limit.
	popLE(limit Time) *event
	// peekNow returns the earliest queued event iff it is due at now, the
	// engine clock; every queued event is due at or after now.
	peekNow(now Time) *event
	// len counts queued events, including dead (lazily cancelled) ones that
	// have not been reclaimed yet.
	len() int
}

func newScheduler(kind SchedulerKind) scheduler {
	if kind == SchedHeap {
		return &eventHeap{items: make([]*event, 0, 1024)}
	}
	return newCalendarQueue()
}

func newCalendarQueue() *calendarQueue {
	cq := &calendarQueue{}
	// One contiguous slab gives every bucket an initial capacity in a single
	// allocation, instead of cwBuckets separate ones per engine (figure runs
	// build an engine per simulation, so setup allocations multiply).
	// Buckets that outgrow their slab segment migrate out through append's
	// usual growth and keep the larger capacity.
	const slabCap = 4
	slab := make([]*event, cwBuckets*slabCap)
	for i := range cq.buckets {
		cq.buckets[i].evs = slab[i*slabCap : i*slabCap : (i+1)*slabCap]
	}
	return cq
}

// Calendar-queue geometry. 2^14 ps ≈ 16.4 ns buckets, 2048 of them, span
// ≈ 33.6 µs: link delays, serialization times and most pacer gaps land on
// the wheel; only RTO-class timers and deeply throttled pacers overflow.
// Occupancy is far from one event per bucket (DESIGN.md "Event scheduler"
// has the census), which is why buckets are ordered runs rather than heaps.
// A wider wheel would spread events thinner at the cost of peak RSS.
const (
	cwLogWidth = 14
	cwBuckets  = 2048
	cwMask     = cwBuckets - 1
	cwWidth    = Time(1) << cwLogWidth
	cwSpan     = Time(cwBuckets) << cwLogWidth
)

// bucket is one wheel bucket: evs[head:] holds its events in (at, seq)
// order. Pops advance head; a drained bucket resets to empty, so
// len(evs) == 0 exactly when the bucket holds nothing.
type bucket struct {
	evs  []*event
	head int
}

// insert places ev in (at, seq) order by scanning back from the tail. Pushes
// arrive mostly in order (a new event is rarely earlier than the bucket's
// latest), so the scan usually stops at once, where a heap would sift.
func (b *bucket) insert(ev *event) {
	if len(b.evs) == cap(b.evs) && b.head > 0 {
		// Reuse the popped prefix before growing.
		n := copy(b.evs, b.evs[b.head:])
		b.evs = b.evs[:n]
		b.head = 0
	}
	//simlint:allow(hotpath) bucket growth is amortized; buckets retain capacity across events
	b.evs = append(b.evs, ev)
	i := len(b.evs) - 1
	for i > b.head && eventBefore(ev, b.evs[i-1]) {
		b.evs[i] = b.evs[i-1]
		i--
	}
	b.evs[i] = ev
}

// pop removes and returns the head event; the caller guarantees the bucket
// is non-empty.
func (b *bucket) pop() *event {
	ev := b.evs[b.head]
	b.evs[b.head] = nil
	b.head++
	if b.head == len(b.evs) {
		b.evs = b.evs[:0]
		b.head = 0
	}
	return ev
}

// calendarQueue is a hierarchical timing wheel: cwBuckets buckets of width
// cwWidth, each an (at, seq)-ordered run, plus a binary-heap overflow for
// events at or beyond the wheel horizon. A bitmap marks occupied buckets so
// the cursor can skip empty ones a word at a time.
//
// Invariants, relied on throughout:
//   - start is cwWidth-aligned and start <= engine now at every push, so
//     every pushed event has at >= start and the cyclic slot mapping is
//     unambiguous (advanceToward never moves start past the run limit, and
//     the engine clamps now to the limit on exit);
//   - wheel events satisfy at - start < cwSpan, overflow events satisfy
//     at - start >= cwSpan (migrate restores this after every cursor move);
//   - bitmap bits exactly mark non-empty buckets, except the active bucket
//     cur, whose bit may be stale-set while it drains; advanceToward clears
//     it on entry, so occupancy scans never see a false positive.
type calendarQueue struct {
	buckets  [cwBuckets]bucket
	bitmap   [cwBuckets / 64]uint64
	start    Time // window start of buckets[cur], cwWidth-aligned
	cur      int
	count    int // events on the wheel, excluding overflow
	overflow []*event
}

func (cq *calendarQueue) len() int { return cq.count + len(cq.overflow) }

func (cq *calendarQueue) slot(at Time) int {
	return int(uint64(at)>>cwLogWidth) & cwMask
}

func (cq *calendarQueue) setBit(i int)   { cq.bitmap[i>>6] |= 1 << (uint(i) & 63) }
func (cq *calendarQueue) clearBit(i int) { cq.bitmap[i>>6] &^= 1 << (uint(i) & 63) }

func (cq *calendarQueue) push(ev *event, now Time) {
	if cq.count == 0 && len(cq.overflow) == 0 {
		// Empty queue: re-anchor the window at the clock (never at the
		// event — a later push may carry an earlier timestamp, and every
		// push satisfies at >= now, so the clock is the one safe anchor)
		// so an idle period never forces a bucket-by-bucket walk.
		cq.start = now - now%cwWidth
		cq.cur = cq.slot(now)
	}
	if ev.at-cq.start >= cwSpan {
		cq.overflow = heapPush(cq.overflow, ev)
		return
	}
	cq.wheelPush(ev)
}

func (cq *calendarQueue) wheelPush(ev *event) {
	i := cq.slot(ev.at)
	cq.buckets[i].insert(ev)
	cq.setBit(i)
	cq.count++
}

func (cq *calendarQueue) popLE(limit Time) *event {
	for len(cq.buckets[cq.cur].evs) == 0 {
		if !cq.advanceToward(limit) {
			return nil
		}
	}
	b := &cq.buckets[cq.cur]
	if b.evs[b.head].at > limit {
		return nil
	}
	cq.count--
	return b.pop()
}

// peekNow looks where an event due at now must sit: past the wheel horizon
// the wheel is empty (every queued event is due at or after now) and the
// overflow heap holds the minimum; otherwise it is the head of now's bucket,
// which covers the one window of the wheel lap that contains now.
func (cq *calendarQueue) peekNow(now Time) *event {
	var ev *event
	if now-cq.start >= cwSpan {
		if len(cq.overflow) == 0 {
			return nil
		}
		ev = cq.overflow[0]
	} else {
		b := &cq.buckets[cq.slot(now)]
		if len(b.evs) == 0 {
			return nil
		}
		ev = b.evs[b.head]
	}
	if ev.at != now {
		return nil
	}
	return ev
}

// advanceToward moves the cursor to the next non-empty bucket whose window
// starts at or before limit. It reports false — leaving start <= limit so
// later pushes cannot alias across the wheel — when every remaining event
// lies beyond limit or the queue is empty. The caller guarantees
// buckets[cur] is empty.
func (cq *calendarQueue) advanceToward(limit Time) bool {
	cq.clearBit(cq.cur)
	if cq.count == 0 {
		// Wheel drained: jump straight to the earliest overflow event.
		if len(cq.overflow) == 0 {
			return false
		}
		min := cq.overflow[0].at
		if min > limit {
			return false
		}
		cq.start = min - min%cwWidth
		cq.cur = cq.slot(min)
		cq.migrate()
		return true
	}
	for {
		d := cq.nextOccupiedDelta()
		if len(cq.overflow) > 0 {
			if s := cq.stepsToHorizon(); s < d {
				d = s
			}
		}
		next := cq.start + Time(d)<<cwLogWidth
		if next > limit {
			return false
		}
		cq.start = next
		cq.cur = (cq.cur + d) & cwMask
		cq.migrate()
		if len(cq.buckets[cq.cur].evs) > 0 {
			return true
		}
		// Stopped at the migration boundary and nothing migrated into this
		// bucket; keep hunting from here.
	}
}

// migrate moves every overflow event that now falls inside the wheel window
// onto the wheel. Cursor moves are capped at cwBuckets-1 buckets per step,
// so a migrated event (at >= old start + cwSpan) always lands at least one
// bucket ahead of the new cursor — never behind it.
func (cq *calendarQueue) migrate() {
	for len(cq.overflow) > 0 && cq.overflow[0].at-cq.start < cwSpan {
		var ev *event
		cq.overflow, ev = heapPop(cq.overflow)
		cq.wheelPush(ev)
	}
}

// nextOccupiedDelta returns the cyclic distance from cur to the nearest
// occupied bucket strictly ahead of it. The caller guarantees count > 0 and
// that cur's bit is clear, so a scan always terminates on a true occupant.
func (cq *calendarQueue) nextOccupiedDelta() int {
	i := (cq.cur + 1) & cwMask
	w := i >> 6
	word := cq.bitmap[w] &^ (1<<(uint(i)&63) - 1)
	for {
		if word != 0 {
			j := w<<6 + bits.TrailingZeros64(word)
			return (j - cq.cur + cwBuckets) & cwMask
		}
		w = (w + 1) & (cwBuckets/64 - 1)
		word = cq.bitmap[w]
	}
}

// stepsToHorizon returns how many buckets the cursor may advance before the
// earliest overflow event enters the wheel window and must migrate. Overflow
// events satisfy at - start >= cwSpan, so the result is always >= 1.
func (cq *calendarQueue) stepsToHorizon() int {
	return int((cq.overflow[0].at-cq.start-cwSpan)>>cwLogWidth) + 1
}
