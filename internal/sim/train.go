package sim

// Flit trains: coalesced stepping of a worm in its clean window.
//
// Once a worm's header has reached every destination and no bubble of it is
// live, every channel of its tree carries one data flit per ChanPropNs tick,
// in lockstep: the per-flit engine would pop one evArrive per tree channel
// per tick, and those arrivals form one contiguous run among the events of
// their instant. A train replaces the run by a single queue entry per tick.
//
// Exactness rests on two facts.
//
//   - Position. The per-flit run at tick t+P is exactly the set of events
//     its own processing at tick t scheduled for t+P, and that processing is
//     contiguous, so the run is contiguous in (t, seq) order and sits after
//     every event scheduled for t+P before it and before every event
//     scheduled after it. A train processes its tick atomically and, while
//     it does, captures everything scheduled for t+P into a private list
//     instead of the queue. At the end of the tick it pushes one queue entry
//     with a fresh seq, which therefore pops where the run would have
//     started. Captured events of other worms (a channel the tail released,
//     a hook's submission) are pushed back to the queue in captured order,
//     before and after the train's entry, so nothing else moves.
//   - Content. A tick whose list is the worm's whole tree and whose source
//     emits a data flit does the same thing every time: every channel
//     carries one more payload flit and the source advances by one. The
//     processing order of such a tick is a function of its list order alone
//     (all state touched is the worm's own, and uniform), so once one tick
//     reproduces its input order the order is stationary. From then until
//     the source is about to emit its tail, a tick is O(1) arithmetic: the
//     payload hop count grows by the tree size and the per-channel payload
//     counts and the source's flit cursor are settled lazily (settle)
//     before any other tick or read needs them.
//
// Every other train tick replays its list through the per-flit handlers in
// list order, so the tail phase — the source emitting the tail, each
// segment's release, each channel's freeing, each destination's
// consumption with its hooks and trace lines — runs the per-flit code at
// its per-flit position. Trains never change what the model computes;
// only Counters.Events, the count of engine steps, falls.

import (
	"slices"

	"repro/internal/topology"
)

// trainEntry is one event captured into a train's private list. Its time is
// implied (the train's next tick) and its order is its list position.
type trainEntry struct {
	a    int32
	kind evKind
}

// train is the coalesced state of one worm in its clean window.
type train struct {
	w *Worm
	// src is the worm's source segment; valid while !bodyOver.
	src *segment
	// tree lists the worm's channels at opening (for settle).
	tree []topology.ChannelID
	// list is this tick's entries in per-flit pop order; spare is the
	// other capture buffer.
	list, spare []trainEntry
	// pending counts arithmetic ticks not yet settled into per-channel
	// state.
	pending int32
	// stationary: the last replayed tick was a full body tick that
	// reproduced its own list order, so body ticks may run as arithmetic.
	stationary bool
	// bodyOver: the source has reached its tail (or the list no longer
	// covers the tree); the train only replays from here on.
	bodyOver bool
}

// minTrainTicks is the least number of body ticks a worm must have left
// for a train to open: the opening tick replays, so shorter windows would
// only pay the walk.
const minTrainTicks = 4

// trainsAllowed reports whether cfg is one the train exactness argument
// covers: cut-through with single-flit input buffers, and router setup and
// startup latencies that are multiples of ChanPropNs greater than it.
func trainsAllowed(cfg Config) bool {
	p := cfg.Params
	return !cfg.StoreAndForward && cfg.InputBufFlits == 1 && p.ChanPropNs > 0 &&
		p.RouterSetupNs > p.ChanPropNs && p.RouterSetupNs%p.ChanPropNs == 0 &&
		p.StartupNs > p.ChanPropNs && p.StartupNs%p.ChanPropNs == 0
}

// DeclareFaultTrial records that the current epoch runs a fault script.
// Topology mutations may drain worms at any instant, so until the next Reset
// the engine schedules every flit as its own event (no flit trains). The
// fault engine calls it when it installs a script; Reset clears it.
func (s *Simulator) DeclareFaultTrial() { s.stopTrains() }

// stopTrains ends arithmetic ticks and train openings for the rest of the
// epoch. Open trains are settled and keep replaying their ticks, which is
// exact whatever happens to their worms.
func (s *Simulator) stopTrains() {
	s.trainsOn = false
	for _, tr := range s.trains {
		if tr.w != nil {
			s.settle(tr)
			tr.stationary = false
			tr.bodyOver = true
		}
	}
}

// openTrain tries to open a train at ev, the first arrival of the clean
// worm w at the current tick. It succeeds when the worm's whole tree is in
// flight toward this instant and the remaining arrivals of that tick are
// the next events in the queue; it then absorbs them and replays the tick.
func (s *Simulator) openTrain(ev event, w *Worm) bool {
	w.trainTick = s.now
	if w.Prune {
		return false
	}
	// The worm's other arrivals of this tick must directly follow ev.
	q := &s.heap
	if !q.restOK {
		q.refreshRest()
	}
	r := &q.rings[evArrive]
	k := 0
	for ; k < r.size; k++ {
		e := r.at(k)
		if e.t != s.now || e.a < 0 || s.chans[e.a].outBuf.w != w ||
			(q.restSrc != restNone && !before(e, &q.rest)) {
			break
		}
	}
	if w.treeSize != 0 && w.treeSize != k+1 {
		return false
	}
	tree, src, inFlight := s.walkTree(w)
	if src == nil {
		return false
	}
	// The tree is fixed from the moment the worm turned clean until its
	// tail leaves the source, so later attempts reject on the run length.
	w.treeSize = len(tree)
	if !inFlight || len(tree) != k+1 || int(src.nextFlit)+minTrainTicks > w.Flits-1 {
		return false
	}

	idx := s.takeTrain()
	tr := s.trains[idx]
	tr.w = w
	tr.src = src
	tr.tree = append(tr.tree[:0], tree...)
	tr.list = append(tr.list[:0], trainEntry{a: ev.a, kind: evArrive})
	for i := 0; i < k; i++ {
		e := r.pop()
		tr.list = append(tr.list, trainEntry{a: e.a, kind: evArrive})
	}
	s.trainsOpened++
	s.replayTick(idx, tr)
	return true
}

// walkTree lists the channels of w's tree, breadth first from its injection
// channel, and returns its source segment, or nil unless every switch
// segment of the tree has acquired its outputs and the tree has a leaf at
// every outstanding destination. inFlight reports whether every channel
// carries a data flit of w on the wire.
func (s *Simulator) walkTree(w *Worm) (tree []topology.ChannelID, src *segment, inFlight bool) {
	inj := s.net.ChannelBetween(w.Src, s.net.SwitchOf(w.Src))
	src = s.chans[inj].reserved
	if src == nil || src.worm != w || !src.source || src.done {
		return nil, nil, false
	}
	tree = append(s.walkBuf[:0], inj)
	inFlight = true
	leaves := 0
	for i := 0; i < len(tree) && src != nil; i++ {
		cs := &s.chans[tree[i]]
		if cs.reserved == nil || cs.reserved.worm != w {
			src = nil
			break
		}
		if !cs.inFlight || cs.outBuf.w != w || cs.outBuf.kind != Data {
			inFlight = false
		}
		if cs.toProc {
			leaves++
			continue
		}
		seg := s.segAtInput[tree[i]]
		if seg == nil || seg.worm != w || !seg.acquired || seg.done || len(seg.outs) == 0 {
			src = nil
			break
		}
		tree = append(tree, seg.outs...)
	}
	s.walkBuf = tree
	if src == nil || leaves != w.remaining {
		return nil, nil, false
	}
	return tree, src, inFlight
}

// runTrain advances train idx by one tick: as arithmetic when the tick is
// a stationary body tick, by replay otherwise.
func (s *Simulator) runTrain(idx int32) {
	tr := s.trains[idx]
	if tr.stationary && s.trainsOn && int(tr.src.nextFlit)+int(tr.pending) < tr.w.Flits-1 {
		n := uint64(len(tr.list))
		s.counters.PayloadFlitHops += n
		s.trainHops += n
		tr.pending++
		s.pushTrain(idx, s.now+s.cfg.Params.ChanPropNs)
		return
	}
	s.settle(tr)
	s.replayTick(idx, tr)
}

// replayTick runs the train's list through the per-flit handlers, capturing
// everything they schedule for the next tick, then splits the capture into
// the train's next list and the events of other worms (see package notes).
func (s *Simulator) replayTick(idx int32, tr *train) {
	cur := tr.list
	body := false
	if !tr.bodyOver {
		if len(cur) == len(tr.tree) && int(tr.src.nextFlit) < tr.w.Flits-1 {
			body = true
		} else {
			tr.bodyOver = true
		}
	}
	s.capturing = true
	s.capT = s.now + s.cfg.Params.ChanPropNs
	s.capBuf = tr.spare[:0]
	for _, e := range cur {
		if s.err != nil {
			break
		}
		if e.kind != evWatchdog {
			s.pendingWork--
			s.activity++
		}
		s.dispatch(e.kind, e.a)
	}
	next := s.capBuf
	s.capBuf = nil
	s.capturing = false
	tr.spare = cur[:0]

	first, last, mine := -1, -1, 0
	for i, e := range next {
		if e.kind == evArrive && s.chans[e.a].outBuf.w == tr.w {
			if first < 0 {
				first = i
			}
			last = i
			mine++
		}
	}
	if mine == 0 || last-first+1 != mine {
		// Done, or interleaved with another worm's events: hand
		// everything back to the queue in captured order.
		s.release(next)
		s.closeTrain(idx, tr)
		tr.list = next[:0]
		return
	}
	s.release(next[:first])
	s.pushTrain(idx, s.capT)
	s.release(next[last+1:])
	own := next[first : last+1]
	tr.stationary = body && slices.Equal(own, cur)
	if first > 0 {
		copy(next, own)
	}
	tr.list = next[:mine]
}

// release pushes captured events back to the queue at the capture tick,
// in captured order. They were counted as pending work when captured.
func (s *Simulator) release(es []trainEntry) {
	for _, e := range es {
		s.seq++
		s.heap.Push(event{t: s.capT, seq: s.seq, kind: e.kind, a: e.a})
	}
}

// pushTrain queues train idx's next tick. Train entries ride the arrive
// ring as arrivals with a negative index; they are not pending work (their
// list entries are).
func (s *Simulator) pushTrain(idx int32, t int64) {
	s.seq++
	s.heap.Push(event{t: t, seq: s.seq, kind: evArrive, a: -idx - 1})
}

// settle folds a train's arithmetic ticks into per-flit state: each tree
// channel carried one more payload flit per tick, and the source emitted
// one more flit per tick. (In-flight flits need no update: a data flit
// carries no index.)
func (s *Simulator) settle(tr *train) {
	p := tr.pending
	if p == 0 {
		return
	}
	for _, c := range tr.tree {
		s.chans[c].payloadCount += uint64(p)
	}
	tr.src.nextFlit += p
	tr.pending = 0
}

// settleTrains settles every open train; readers of per-channel state call
// it first so a mid-window read sees per-flit-exact values.
func (s *Simulator) settleTrains() {
	for _, tr := range s.trains {
		if tr.w != nil {
			s.settle(tr)
		}
	}
}

func (s *Simulator) takeTrain() int32 {
	if n := len(s.trainFree); n > 0 {
		idx := s.trainFree[n-1]
		s.trainFree = s.trainFree[:n-1]
		return idx
	}
	s.trains = append(s.trains, &train{})
	return int32(len(s.trains) - 1)
}

func (s *Simulator) closeTrain(idx int32, tr *train) {
	tr.w = nil
	tr.src = nil
	tr.pending = 0
	tr.stationary = false
	tr.bodyOver = false
	s.trainFree = append(s.trainFree, idx)
}

// resetTrains closes every train (Reset).
func (s *Simulator) resetTrains() {
	s.trainFree = s.trainFree[:0]
	for i, tr := range s.trains {
		tr.list = tr.list[:0]
		s.closeTrain(int32(i), tr)
	}
	s.capturing = false
	s.trainsOn = s.trainGate && !s.perFlit
}
