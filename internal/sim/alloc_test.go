package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/updown"
)

func allocTestRouter(t *testing.T, switches int) *core.Router {
	t.Helper()
	net, err := topology.RandomLattice(topology.DefaultLattice(switches, 5))
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRouter(lab)
}

// TestEventQueueZeroAllocSteadyState pins the event queue's push/pop cycle
// at zero allocations once its rings and heap are warm.
func TestEventQueueZeroAllocSteadyState(t *testing.T) {
	var q eventQueue
	// Warm every tier: rings for the fixed-delta kinds, heap for calls.
	for i := 0; i < 512; i++ {
		q.Push(event{t: int64(i * 10), seq: uint64(i), kind: evKind(i % 5)})
	}
	for {
		if _, ok := q.PopUntil(math.MaxInt64); !ok {
			break
		}
	}
	now := int64(100000)
	seq := uint64(1000)
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			seq++
			q.Push(event{t: now + 10, seq: seq, kind: evArrive})
			seq++
			q.Push(event{t: now + 40, seq: seq, kind: evRoute})
			now += 10
		}
		for {
			ev, ok := q.PopUntil(math.MaxInt64)
			if !ok {
				break
			}
			if ev.t > now {
				now = ev.t
			}
		}
	}); n != 0 {
		t.Fatalf("event queue allocated %v allocs/run in steady state, want 0", n)
	}
}

// TestSteadyStateBroadcastAllocs pins the engine's steady-state allocation
// behaviour: after a warm-up broadcast has sized every pool and scratch
// buffer, a full broadcast (routing decisions at every switch, multi-head
// replication over every channel, tens of thousands of events) may allocate
// only the per-worm bookkeeping — the Worm struct, its destination
// copies/bitset, its completion callback slot — regardless of how many
// routing decisions the inner loop makes. The bound is a small constant; the
// seed implementation allocated tens of thousands of objects per broadcast.
func TestSteadyStateBroadcastAllocs(t *testing.T) {
	r := allocTestRouter(t, 64)
	s, err := New(r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]topology.NodeID, r.Net.NumProcs)
	for i := range procs {
		procs[i] = topology.NodeID(r.Net.NumSwitches + i)
	}
	broadcast := func() {
		w, err := s.Submit(s.Now(), procs[0], procs[1:])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunUntilIdle(s.Now() + 1e15); err != nil {
			t.Fatal(err)
		}
		if !w.Completed() {
			t.Fatal("broadcast did not complete")
		}
	}
	broadcast() // warm pools, rings, scratch buffers

	const perWormBudget = 16
	if n := testing.AllocsPerRun(10, broadcast); n > perWormBudget {
		t.Fatalf("steady-state broadcast allocated %v allocs/run, want <= %d (per-worm bookkeeping only)", n, perWormBudget)
	}
}

// TestSteadyStateAllocsIndependentOfFanout checks the property behind the
// zero-alloc claim: inner-loop allocations do not scale with the work done.
// A broadcast to 63 destinations must not allocate meaningfully more than a
// 4-destination multicast once warm — the difference is per-worm metadata
// (destination slices), not per-event or per-hop cost.
func TestSteadyStateAllocsIndependentOfFanout(t *testing.T) {
	r := allocTestRouter(t, 64)
	s, err := New(r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	procs := make([]topology.NodeID, r.Net.NumProcs)
	for i := range procs {
		procs[i] = topology.NodeID(r.Net.NumSwitches + i)
	}
	run := func(dests []topology.NodeID) func() {
		return func() {
			if _, err := s.Submit(s.Now(), procs[0], dests); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntilIdle(s.Now() + 1e15); err != nil {
				t.Fatal(err)
			}
		}
	}
	small := procs[1:5]
	large := procs[1:]
	run(large)() // warm at maximum fan-out
	run(small)()

	smallAllocs := testing.AllocsPerRun(10, run(small))
	largeAllocs := testing.AllocsPerRun(10, run(large))
	// A 63-destination broadcast routes at every switch and replicates
	// over every tree channel — ~16x the events of the 4-destination
	// multicast. Identical alloc counts up to per-worm metadata prove the
	// inner loop is allocation-free.
	if largeAllocs > smallAllocs+8 {
		t.Fatalf("allocs scale with fan-out: %v (63 dests) vs %v (4 dests)", largeAllocs, smallAllocs)
	}
}

// TestTrainTrialAllocFree extends the steady-state claim to flit trains: a
// warm fig3-style trial (90% unicast, 10% multicast of up to 64
// destinations on the 128-switch lattice) in which trains open, replay and
// close allocates nothing.
func TestTrainTrialAllocFree(t *testing.T) {
	r := allocTestRouter(t, 128)
	s, err := New(r, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	plan := makeTrialPlan(r, 3, 150, 64)
	trial := func() {
		s.Reset()
		for m := range plan.at {
			if _, err := s.Submit(plan.at[m], plan.src[m], plan.dests[m]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunUntilIdle(idleCap); err != nil {
			t.Fatal(err)
		}
	}
	trial()
	trial()
	opened, hops := s.trainsOpened, s.trainHops
	if n := testing.AllocsPerRun(50, trial); n != 0 {
		t.Fatalf("warm trial with flit trains allocated %v allocs/run, want 0", n)
	}
	if s.trainsOpened == opened || s.trainHops == hops {
		t.Fatalf("no train opened during the measured trials (opened %d, hops %d)", s.trainsOpened-opened, s.trainHops-hops)
	}
}
