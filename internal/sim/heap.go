package sim

// eventBefore is the total order every scheduler must respect: earlier time
// first, and FIFO (scheduling order) among events at the same instant.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush and heapPop maintain a binary min-heap over a plain event slice.
// Hand-rolled (rather than container/heap) to avoid interface boxing on the
// hot path, and shared between the standalone eventHeap and the calendar
// queue's overflow heap.
func heapPush(items []*event, ev *event) []*event {
	//simlint:allow(hotpath) heap growth is amortized; the heaps retain capacity across events
	items = append(items, ev)
	siftUp(items, len(items)-1)
	return items
}

func heapPop(items []*event) ([]*event, *event) {
	ev := items[0]
	last := len(items) - 1
	items[0] = items[last]
	items[last] = nil
	items = items[:last]
	if last > 0 {
		siftDown(items, 0)
	}
	return items, ev
}

func siftUp(items []*event, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventBefore(items[i], items[parent]) {
			return
		}
		items[i], items[parent] = items[parent], items[i]
		i = parent
	}
}

func siftDown(items []*event, i int) {
	n := len(items)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		smallest := left
		if right := left + 1; right < n && eventBefore(items[right], items[left]) {
			smallest = right
		}
		if !eventBefore(items[smallest], items[i]) {
			return
		}
		items[i], items[smallest] = items[smallest], items[i]
		i = smallest
	}
}

// eventHeap is the reference scheduler: a single binary min-heap. Lazy
// cancellation removed the only need for arbitrary deletion, so there is no
// per-event index bookkeeping — cancelled events stay queued, marked dead,
// and are skipped at pop.
type eventHeap struct {
	items []*event
}

func (h *eventHeap) len() int { return len(h.items) }

func (h *eventHeap) push(ev *event, _ Time) { h.items = heapPush(h.items, ev) }

func (h *eventHeap) peekNow(now Time) *event {
	if len(h.items) == 0 || h.items[0].at != now {
		return nil
	}
	return h.items[0]
}

func (h *eventHeap) popLE(limit Time) *event {
	if len(h.items) == 0 || h.items[0].at > limit {
		return nil
	}
	var ev *event
	h.items, ev = heapPop(h.items)
	return ev
}
