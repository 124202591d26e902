package sim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// queueModelStats counts the queue paths one model run exercised, so the
// reference test can insist that every path was covered.
type queueModelStats struct {
	arriveFallbacks int // non-monotone arrive pushes that went to the heap
	farPushes       int // pushes that landed in the heap's far tier
	promotions      int // pops whose selection advanced the far-tier split
	belowHead       int // PopUntil limits below the head
	atHead          int // PopUntil limits equal to the head
	aboveHead       int // PopUntil limits above the head
	resets          int
}

// byteStream hands out the fuzz input one byte at a time, then zeros.
type byteStream struct {
	data []byte
	i    int
}

func (b *byteStream) next() byte {
	if b.i >= len(b.data) {
		return 0
	}
	v := b.data[b.i]
	b.i++
	return v
}

func (b *byteStream) done() bool { return b.i >= len(b.data) }

// addSat returns a+d, saturating at math.MaxInt64 (both non-negative).
func addSat(a, d int64) int64 {
	if d > math.MaxInt64-a {
		return math.MaxInt64
	}
	return a + d
}

// runEventQueueModel interprets data as a stream of pushes (all six kinds,
// at engine-like, jittered, far-tier and near-MaxInt64 times), PopUntil
// calls (limits below, at and above the head) and Resets, and checks every
// pop against a reference that sorts the pending events by (t, seq).
func runEventQueueModel(t testing.TB, data []byte) queueModelStats {
	t.Helper()
	var (
		q     eventQueue
		ref   []event
		st    queueModelStats
		now   int64
		seq   uint64
		delta = [...]int64{10, 40, 10_000, 100_000}
	)
	// refMin returns the index of the reference minimum, or -1 when empty.
	refMin := func() int {
		best := -1
		for i := range ref {
			if best < 0 || before(&ref[i], &ref[best]) {
				best = i
			}
		}
		return best
	}
	pop := func(limit int64) {
		t.Helper()
		split := q.heap.split
		got, ok := q.PopUntil(limit)
		if q.heap.split != split {
			st.promotions++
		}
		i := refMin()
		if i < 0 || ref[i].t > limit {
			if ok {
				t.Fatalf("PopUntil(%d) = %+v, want none (reference %d pending)", limit, got, len(ref))
			}
			return
		}
		want := ref[i]
		if !ok || got != want {
			t.Fatalf("PopUntil(%d) = %+v, %v; want %+v", limit, got, ok, want)
		}
		ref = append(ref[:i], ref[i+1:]...)
		now = got.t
	}
	in := &byteStream{data: data}
	for !in.done() {
		op := in.next()
		switch {
		case op < 150: // push
			kind := evKind(op % 6)
			b := int64(in.next())
			var at int64
			switch mode := in.next() % 8; {
			case mode < 4 && int(kind) < numRingKinds:
				at = addSat(now, delta[kind])
			case mode < 6:
				at = addSat(now, b)
			case mode == 6:
				at = addSat(now, farWindowNs*(1+b%4)+b)
			default:
				at = math.MaxInt64 - b
			}
			seq++
			e := event{t: at, seq: seq, a: int32(b), kind: kind}
			arrives, far := q.rings[evArrive].size, len(q.heap.far)
			q.Push(e)
			ref = append(ref, e)
			if kind == evArrive && q.rings[evArrive].size == arrives {
				st.arriveFallbacks++
			}
			if len(q.heap.far) > far {
				st.farPushes++
			}
		case op < 250: // PopUntil relative to the reference head
			i := refMin()
			if i < 0 {
				pop(int64(in.next()))
				continue
			}
			head := ref[i].t
			switch in.next() % 3 {
			case 0:
				st.belowHead++
				pop(head - 1 - int64(in.next()))
			case 1:
				st.atHead++
				pop(head)
			default:
				st.aboveHead++
				pop(addSat(head, 1+int64(in.next())))
			}
		default:
			st.resets++
			q.Reset()
			ref = ref[:0]
			now, seq = 0, 0
		}
	}
	for len(ref) > 0 {
		pop(math.MaxInt64)
	}
	if e, ok := q.PopUntil(math.MaxInt64); ok {
		t.Fatalf("drained queue still popped %+v", e)
	}
	return st
}

// TestEventQueueMatchesReference runs random interleavings of pushes of
// every kind, PopUntil limits and Resets against a (t, seq)-sorted
// reference, and checks that every queue path was exercised: arrive pushes
// falling back to the heap, far-tier pushes and promotions, limits below,
// at and above the head, and Reset mid-stream.
func TestEventQueueMatchesReference(t *testing.T) {
	var total queueModelStats
	r := rng.New(11)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3000)
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		st := runEventQueueModel(t, data)
		total.arriveFallbacks += st.arriveFallbacks
		total.farPushes += st.farPushes
		total.promotions += st.promotions
		total.belowHead += st.belowHead
		total.atHead += st.atHead
		total.aboveHead += st.aboveHead
		total.resets += st.resets
	}
	for name, n := range map[string]int{
		"non-monotone arrive pushes": total.arriveFallbacks,
		"far-tier pushes":            total.farPushes,
		"far-tier promotions":        total.promotions,
		"limits below the head":      total.belowHead,
		"limits at the head":         total.atHead,
		"limits above the head":      total.aboveHead,
		"mid-stream resets":          total.resets,
	} {
		if n == 0 {
			t.Errorf("no %s exercised", name)
		}
	}
}

// FuzzEventQueue checks the event queue against the sorted reference on
// arbitrary op streams.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 200, 1})
	f.Add([]byte{6, 3, 7, 6, 9, 7, 0, 5, 7, 200, 0, 0, 200, 2, 5, 255, 200, 1})
	f.Add([]byte{1, 7, 6, 2, 9, 6, 3, 1, 1, 200, 0, 4, 200, 1, 255, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		runEventQueueModel(t, data)
	})
}
