package sim

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/topology"
)

// TestSameTimeArrivalsFollowTheirParents pins, on the per-flit engine, the
// same-time order that flit trains take their queue position from: every
// flit arrival pops exactly ChanPropNs after the event whose processing
// scheduled it, and arrivals of one instant pop in the order of the events
// that scheduled them (events pop in (time, scheduling order), so a tick's
// processing hands its order on to the next tick). A train's entry is
// pushed when its tick ends, so it lands where the run of arrivals its tick
// scheduled would have started only while both hold. The traffic submits
// bursts on shared nanoseconds so many arrivals share an instant.
func TestSameTimeArrivalsFollowTheirParents(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		r := randomRouter(t, 48, seed)
		s, err := New(r, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.perFlit, s.trainsOn = true, false
		plan := makeTrialPlan(r, seed, 120, 8)
		for m := range plan.at {
			plan.at[m] -= plan.at[m] % 4000 // bursts on shared instants
			if _, err := s.Submit(plan.at[m], plan.src[m], plan.dests[m]); err != nil {
				t.Fatal(err)
			}
		}
		// pops[i] is the i-th popped event's time and the first sequence
		// number handed out while it was processed.
		type pop struct {
			t        int64
			firstSeq uint64
		}
		var pops []pop
		var last event
		lastParent, lastArriveT := -1, int64(-1)
		arrivals := 0
		for s.err == nil && s.outstanding > 0 {
			ev, ok := s.heap.PopUntil(idleCap)
			if !ok {
				break
			}
			if len(pops) > 0 && !before(&last, &ev) {
				t.Fatalf("seed %d: pop (%d,%d) after (%d,%d)", seed, ev.t, ev.seq, last.t, last.seq)
			}
			if ev.kind == evArrive {
				arrivals++
				// The parent is the last pop that began handing out
				// sequence numbers at or before ev's.
				p := sort.Search(len(pops), func(i int) bool { return pops[i].firstSeq > ev.seq }) - 1
				if p < 0 || pops[p].t != ev.t-s.cfg.Params.ChanPropNs {
					t.Fatalf("seed %d: arrival at t=%d not scheduled one channel delay earlier", seed, ev.t)
				}
				if ev.t == lastArriveT && p < lastParent {
					t.Fatalf("seed %d: same-time arrivals at t=%d pop out of parent order", seed, ev.t)
				}
				lastParent, lastArriveT = p, ev.t
			}
			last = ev
			pops = append(pops, pop{t: ev.t, firstSeq: s.seq + 1})
			s.step(ev)
		}
		if s.err != nil || s.outstanding != 0 {
			t.Fatalf("seed %d: run ended with err=%v outstanding=%d", seed, s.err, s.outstanding)
		}
		if arrivals == 0 {
			t.Fatalf("seed %d: no arrivals", seed)
		}
	}
}

// TestBodyTickOrderIsStationary pins, on the per-flit engine, the property
// that lets a train run body ticks as arithmetic: while a clean worm's
// whole tree carries data flits in lockstep, a tick's processing order is a
// function of its pop order alone, so once one tick pops its arrivals in
// the same order as the tick before, the next tick does too.
func TestBodyTickOrderIsStationary(t *testing.T) {
	type tick struct {
		t     int64
		size  int // tree size when the tick was fully in flight, else 0
		order []topology.ChannelID
	}
	checked, settled := 0, 0
	for _, seed := range []uint64{1, 2, 3} {
		r := randomRouter(t, 48, seed)
		s, err := New(r, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.perFlit, s.trainsOn = true, false
		plan := makeTrialPlan(r, seed, 120, 8)
		for m := range plan.at {
			if _, err := s.Submit(plan.at[m], plan.src[m], plan.dests[m]); err != nil {
				t.Fatal(err)
			}
		}
		ticks := map[*Worm][]tick{}
		for s.err == nil && s.outstanding > 0 {
			ev, ok := s.heap.PopUntil(idleCap)
			if !ok {
				break
			}
			if ev.kind == evArrive {
				w := s.chans[ev.a].outBuf.w
				tl := ticks[w]
				if len(tl) == 0 || tl[len(tl)-1].t != ev.t {
					size := 0
					if w.hdrPending == 0 && w.bubbles == 0 {
						if tree, src, inFlight := s.walkTree(w); src != nil && inFlight {
							size = len(tree)
						}
					}
					tl = append(tl, tick{t: ev.t, size: size})
				}
				last := &tl[len(tl)-1]
				last.order = append(last.order, topology.ChannelID(ev.a))
				ticks[w] = tl
			}
			s.step(ev)
		}
		if s.err != nil || s.outstanding != 0 {
			t.Fatalf("seed %d: run ended with err=%v outstanding=%d", seed, s.err, s.outstanding)
		}
		full := func(k tick) bool { return k.size > 0 && len(k.order) == k.size }
		p := s.cfg.Params.ChanPropNs
		for _, tl := range ticks {
			for j := 0; j+2 < len(tl); j++ {
				a, b, c := tl[j], tl[j+1], tl[j+2]
				if !full(a) || !full(b) || !full(c) || b.t != a.t+p || c.t != b.t+p {
					continue
				}
				checked++
				if !slices.Equal(a.order, b.order) {
					continue
				}
				settled++
				if !slices.Equal(b.order, c.order) {
					t.Fatalf("seed %d: body tick order %v repeated at t=%d but became %v at t=%d",
						seed, b.order, b.t, c.order, c.t)
				}
			}
		}
	}
	t.Logf("%d body-tick triples, %d after a repeated order", checked, settled)
	if settled == 0 || settled == checked {
		t.Fatalf("checked %d body-tick triples, %d with a repeated order: need both kinds", checked, settled)
	}
}
