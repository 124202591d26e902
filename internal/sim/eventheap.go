package sim

import "math"

// evKind enumerates the simulator's event types.
type evKind uint8

const (
	// evArrive: a flit finishes crossing channel `a` and arrives at the
	// destination node's input side. The flit itself is read from the
	// channel's output buffer, which is immutable while the wire is busy.
	evArrive evKind = iota
	// evRoute: the router-setup delay for the header at the head of input
	// buffer `a` has elapsed; make the routing decision.
	evRoute
	// evStartup: the startup latency at processor index `a` has elapsed;
	// begin injecting the head-of-queue worm.
	evStartup
	// evWatchdog: periodic progress / deadlock check.
	evWatchdog
	// evCall: invoke the closure stored at Simulator.calls[a] (used by
	// traffic generators via At; the slot index is recycled through a free
	// list so steady-state scheduling does not grow the table).
	evCall
	// evInject: enqueue the worm stored at Simulator.worms[a] at its source
	// processor. Submit scheduling is an index into the worm table rather
	// than a closure, so the steady-state submit path allocates nothing.
	evInject

	numRingKinds = int(evCall) // evArrive..evWatchdog get monotone rings
)

// event is one scheduled simulator event. Ties on time are broken by the
// monotonically increasing sequence number so runs are deterministic.
//
// The struct is deliberately pointer-free and small: the event queue is the
// hottest data structure in the simulator (tens of millions of push/pop
// pairs per run), and keeping pointers out of it means moves copy small
// scalar-only values with no write barriers and the GC never scans the
// backing arrays. Closures live in the Simulator's call table (indexed by
// `a`), and in-flight flits live in the channel output buffers.
type event struct {
	t    int64
	seq  uint64
	a    int32
	kind evKind
}

// before reports whether event x precedes event y in (t, seq) order.
func before(x, y *event) bool {
	if x.t != y.t {
		return x.t < y.t
	}
	return x.seq < y.seq
}

// eventQueue is a deterministic priority queue over (t, seq) exploiting the
// structure of a discrete-event wormhole simulation: every evArrive is
// scheduled at now + ChanPropNs, every evRoute at now + RouterSetupNs, every
// evStartup at now + StartupNs and every evWatchdog at now + WatchdogNs.
// Since `now` is non-decreasing and seq is globally increasing, the pending
// events of each of those kinds are already in (t, seq) order at insertion:
// they live in plain FIFO rings with O(1) push and pop. Only evCall events
// (traffic-generator callbacks at arbitrary times) need a real heap.
//
// Most events are flit arrivals, so the queue caches the (t, seq) minimum
// over every other source — the route, startup and watchdog rings and the
// heap. A pop then selects the head once, comparing the arrive-ring head
// with that one cached event, and takes the (t, seq) minimum, so the pop
// order is exactly that of a single global heap. Pushes to and pops from
// the arrive ring leave the cache valid; any other push or pop invalidates
// it, and the next pop recomputes it.
//
// Pushes that would violate a ring's monotonicity (possible only if a
// latency constant changed mid-run, which the engine never does) fall back
// to the heap, keeping the order contract independent of that invariant.
type eventQueue struct {
	rings [numRingKinds]fifoRing
	heap  tieredHeap
	// rest caches the earliest event outside the arrive ring; restSrc is
	// the ring kind holding it, restHeap or restNone (those sources are
	// empty). restOK reports whether the cache is current.
	rest    event
	restSrc int8
	restOK  bool
}

const (
	restHeap int8 = -1
	restNone int8 = -2
)

// Reset empties the queue while retaining every ring buffer and both heap
// tiers at their grown capacity. Events are pointer-free, so stale entries
// beyond the reset lengths hold nothing alive.
func (q *eventQueue) Reset() {
	for i := range q.rings {
		r := &q.rings[i]
		r.head, r.size, r.lastT = 0, 0, 0
	}
	q.heap.ev = q.heap.ev[:0]
	q.heap.far = q.heap.far[:0]
	q.heap.split = 0
	q.restOK = false
}

// Push inserts an event.
func (q *eventQueue) Push(e event) {
	if int(e.kind) < numRingKinds {
		r := &q.rings[e.kind]
		if r.size == 0 || e.t >= r.lastT {
			r.push(e)
			if e.kind != evArrive {
				q.restOK = false
			}
			return
		}
	}
	q.restOK = false
	q.heap.push(e)
}

// PopUntil removes and returns the earliest event if its time is at most
// limit. It reports false, leaving the queue as it was, when the queue is
// empty or its earliest event lies beyond limit.
func (q *eventQueue) PopUntil(limit int64) (event, bool) {
	if !q.restOK {
		q.refreshRest()
	}
	if a := &q.rings[evArrive]; a.size > 0 {
		h := a.peek()
		if q.restSrc == restNone || before(h, &q.rest) {
			if h.t > limit {
				return event{}, false
			}
			return a.pop(), true
		}
	} else if q.restSrc == restNone {
		return event{}, false
	}
	if q.rest.t > limit {
		return event{}, false
	}
	q.restOK = false
	if q.restSrc == restHeap {
		return q.heap.pop(), true
	}
	return q.rings[q.restSrc].pop(), true
}

// refreshRest recomputes the cached minimum over every source but the
// arrive ring.
func (q *eventQueue) refreshRest() {
	q.restOK = true
	q.restSrc = restNone
	for k := evRoute; int(k) < numRingKinds; k++ {
		r := &q.rings[k]
		if r.size > 0 && (q.restSrc == restNone || before(r.peek(), &q.rest)) {
			q.rest = *r.peek()
			q.restSrc = int8(k)
		}
	}
	if q.heap.Len() > 0 {
		if h := q.heap.peekPtr(); q.restSrc == restNone || before(h, &q.rest) {
			q.rest = *h
			q.restSrc = restHeap
		}
	}
}

// fifoRing is a growable power-of-two circular FIFO of events whose push
// order is guaranteed to be (t, seq) order.
type fifoRing struct {
	buf   []event
	head  int
	size  int
	lastT int64
}

func (r *fifoRing) push(e event) {
	if r.size == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.size)&(len(r.buf)-1)] = e
	r.size++
	r.lastT = e.t
}

func (r *fifoRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 64
	}
	buf := make([]event, n)
	for i := 0; i < r.size; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

func (r *fifoRing) peek() *event {
	return &r.buf[r.head]
}

// at returns the i-th queued event (0 = head); i must be below size.
func (r *fifoRing) at(i int) *event {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *fifoRing) pop() event {
	e := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.size--
	return e
}

// farWindowNs sizes the promotion batches of the far-event tier: when the
// near heap drains, the split advances to (earliest far event + window) and
// every far event inside moves into the near heap at once. Two startup
// latencies comfortably covers the in-flight horizon of the paper's timing
// constants while keeping batches coarse enough to amortize the far scan.
const farWindowNs = 20_000

// tieredHeap is a two-tier min-heap ordered by (t, seq).
//
// The near tier is a 4-ary min-heap holding every event with t <= split. It
// is hand-rolled rather than using container/heap to avoid interface boxing,
// and 4-ary rather than binary because pops dominate: a 4-ary heap halves
// the sift-down depth and keeps the candidate children in one or two cache
// lines. Sifting moves a hole instead of swapping, so each level costs one
// copy.
//
// The far tier is an unsorted staging buffer for events with t > split.
// Open-loop workloads pre-schedule thousands of far-future submissions
// (traffic generators compute every arrival up front); without the split,
// those pending events would sit in the hot heap for the whole run and every
// push/pop would pay an extra log factor over them. Far events cost one
// append on entry and one batched promotion when the split passes them.
// Since the split only advances and events never straddle it, the pop order
// is exactly the single-heap (t, seq) order — determinism is untouched.
type tieredHeap struct {
	ev    []event // near tier: heap of events with t <= split
	far   []event // far tier: unsorted events with t > split
	split int64
}

func (h *tieredHeap) Len() int { return len(h.ev) + len(h.far) }

// push inserts an event.
func (h *tieredHeap) push(e event) {
	if e.t > h.split {
		h.far = append(h.far, e)
		return
	}
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !before(&e, &ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
}

// promote advances the split past the earliest far event and moves every far
// event inside the new window into the near heap. Called only when the near
// heap is empty, so each promotion moves at least one event.
func (h *tieredHeap) promote() {
	minT := h.far[0].t
	for i := 1; i < len(h.far); i++ {
		if h.far[i].t < minT {
			minT = h.far[i].t
		}
	}
	// Saturate: a window past math.MaxInt64 would wrap the split negative,
	// promote nothing and leave normalize looping forever.
	h.split = math.MaxInt64
	if minT <= math.MaxInt64-farWindowNs {
		h.split = minT + farWindowNs
	}
	kept := h.far[:0]
	for _, e := range h.far {
		if e.t <= h.split {
			h.push(e)
		} else {
			kept = append(kept, e)
		}
	}
	h.far = kept
}

// normalize restores the invariant that the near heap holds the global
// minimum whenever the queue is non-empty.
func (h *tieredHeap) normalize() {
	for len(h.ev) == 0 && len(h.far) > 0 {
		h.promote()
	}
}

// pop removes and returns the earliest event. It panics on an empty heap.
func (h *tieredHeap) pop() event {
	h.normalize()
	top := h.ev[0]
	n := len(h.ev) - 1
	e := h.ev[n]
	h.ev = h.ev[:n]
	if n == 0 {
		return top
	}
	ev := h.ev
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if before(&ev[j], &ev[min]) {
				min = j
			}
		}
		if !before(&ev[min], &e) {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
	return top
}

// peekPtr returns a pointer to the earliest event without removing it. The
// pointer is valid until the next queue operation.
func (h *tieredHeap) peekPtr() *event {
	h.normalize()
	return &h.ev[0]
}
