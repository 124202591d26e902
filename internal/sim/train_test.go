package sim_test

// Differential oracle for flit trains: every observable output of a trial
// run with trains must equal the same trial stepped one event per flit-hop.

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

func specRouter(t testing.TB, spec string) *core.Router {
	t.Helper()
	sp, err := topology.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	net, err := sp.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewRouter(lab)
}

// wormOutcome is everything the model computes for one worm.
type wormOutcome struct {
	ID                                       int64
	SubmitNs, InjectStartNs, DoneNs, AbortNs int64
	ArrivalNs                                []int64
	Retry                                    int
	PrunedDests                              []topology.NodeID
	Completed, Aborted                       bool
}

// trialOutcome is everything observable about one trial except
// Counters.Events, which counts engine steps.
type trialOutcome struct {
	Err      string
	Worms    []wormOutcome
	Counters sim.Counters
	Loads    []sim.ChannelLoad
	Trace    string
	Logs     []string
}

// oracleRunner is a workload runner that optionally records the JSONL trace
// stream and Logf lines of its trials.
type oracleRunner struct {
	r     *workload.Runner
	trace bytes.Buffer
	logs  []string
}

func newOracleRunner(t testing.TB, router *core.Router, perFlit, traced bool) *oracleRunner {
	t.Helper()
	o := &oracleRunner{}
	cfg := sim.DefaultConfig()
	if traced {
		cfg.Logf = func(format string, args ...any) {
			o.logs = append(o.logs, fmt.Sprintf(format, args...))
		}
	}
	r, err := workload.NewRunner(router, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if perFlit {
		sim.ForcePerFlit(r.Sim())
	}
	if traced {
		r.Sim().SetTracer(r.Sim().JSONLTracer(&o.trace))
	}
	o.r = r
	return o
}

func (o *oracleRunner) run(w workload.Workload, seed uint64) trialOutcome {
	o.trace.Reset()
	o.logs = o.logs[:0]
	err := o.r.Trial(w, seed)
	return collectOutcome(err, o.r.Sim(), o.r.Worms(), o.trace.String(), o.logs)
}

func collectOutcome(err error, s *sim.Simulator, worms []*sim.Worm, trace string, logs []string) trialOutcome {
	var out trialOutcome
	if err != nil {
		out.Err = err.Error()
	}
	for _, w := range worms {
		out.Worms = append(out.Worms, wormOutcome{
			ID: w.ID, SubmitNs: w.SubmitNs, InjectStartNs: w.InjectStartNs,
			DoneNs: w.DoneNs, AbortNs: w.AbortNs,
			ArrivalNs:   slices.Clone(w.ArrivalNs),
			Retry:       w.Retry,
			PrunedDests: slices.Clone(w.PrunedDests),
			Completed:   w.Completed(), Aborted: w.Aborted(),
		})
	}
	out.Counters = s.Counters()
	out.Counters.Events = 0
	out.Loads = s.ChannelLoads()
	out.Trace = trace
	out.Logs = slices.Clone(logs)
	return out
}

func diffOutcome(t *testing.T, cell string, got, want trialOutcome) {
	t.Helper()
	if got.Err != want.Err {
		t.Fatalf("%s: error %q, per-flit %q", cell, got.Err, want.Err)
	}
	if len(got.Worms) != len(want.Worms) {
		t.Fatalf("%s: %d worms, per-flit %d", cell, len(got.Worms), len(want.Worms))
	}
	for i := range got.Worms {
		if !reflect.DeepEqual(got.Worms[i], want.Worms[i]) {
			t.Fatalf("%s: worm %d\n trains   %+v\n per-flit %+v", cell, i, got.Worms[i], want.Worms[i])
		}
	}
	if got.Counters != want.Counters {
		t.Fatalf("%s: counters\n trains   %+v\n per-flit %+v", cell, got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Loads, want.Loads) {
		t.Fatalf("%s: channel loads differ", cell)
	}
	if got.Trace != want.Trace {
		t.Fatalf("%s: JSONL trace streams differ (%d vs %d bytes)", cell, len(got.Trace), len(want.Trace))
	}
	if !slices.Equal(got.Logs, want.Logs) {
		t.Fatalf("%s: Logf lines differ (%d vs %d)", cell, len(got.Logs), len(want.Logs))
	}
}

// oracleParams are the per-cell knobs: small trials at two offered loads.
func oracleParams(rate float64, procs int, trace string) workload.Params {
	return workload.ClampFanOut(workload.Params{
		Messages: 48, RatePerProcPerUs: rate, MulticastDests: 4, MulticastFraction: 0.2,
		Sources: 2, Window: 2, Trace: trace,
		FaultSeed: 3, FaultMTBFUs: 1500, FaultMTTRUs: 60, FaultHorizonUs: 400,
		FaultStartUs: 20, FaultWindowUs: 60, FaultGapUs: 30,
	}, procs)
}

// TestTrainsMatchPerFlit runs every registry scenario (plus the replay of a
// captured trial) under fault profiles none, poisson and maintenance, at
// two rates, on six topology families, once with trains and once stepped
// per flit, and requires identical worms, counters (Events aside) and
// channel loads; the lattice cells also compare the JSONL trace stream and
// Logf lines. Each topology's cells share one runner per side, so fault
// trials are followed by clean trials on the same simulator.
func TestTrainsMatchPerFlit(t *testing.T) {
	topos := []string{"lattice:32", "gnm:24+12", "mesh:5x4", "torus:5x5", "hypercube:4", "fattree:4x2"}
	profiles := []string{"", "poisson", "maintenance"}
	rates := []float64{0.01, 0.04}
	for _, spec := range topos {
		router := specRouter(t, spec)
		traced := spec == "lattice:32"
		trains := newOracleRunner(t, router, false, traced)
		perFlit := newOracleRunner(t, router, true, traced)
		procs := router.Net.NumProcs

		// The replay scenario replays a trial captured on this network.
		perFlit.r.CaptureTrace(true)
		if err := perFlit.r.Trial(workload.Mixed{RatePerProcPerUs: 0.03, MulticastFraction: 0.2,
			MulticastDests: 4, Messages: 40}, 11); err != nil {
			t.Fatal(err)
		}
		traceFile := perFlit.r.Trace().Format()
		perFlit.r.CaptureTrace(false)

		var hops, cleanHops, aborted uint64
		_, before := sim.TrainStats(trains.r.Sim())
		for _, sc := range workload.Scenarios() {
			for _, rate := range rates {
				for _, prof := range profiles {
					p := oracleParams(rate, procs, traceFile)
					p.FaultProfile = prof
					w, err := workload.ApplyFaults(sc.New(p), p)
					if err != nil {
						t.Fatal(err)
					}
					cell := fmt.Sprintf("%s/%s/rate=%g/faults=%q", spec, sc.Name, rate, prof)
					got := trains.run(w, 7)
					want := perFlit.run(w, 7)
					diffOutcome(t, cell, got, want)
					_, after := sim.TrainStats(trains.r.Sim())
					if _, faulty := w.(workload.Faulty); faulty {
						aborted += got.Counters.WormsAborted
					} else {
						hops += got.Counters.PayloadFlitHops
						cleanHops += after - before
					}
					before = after
				}
			}
		}
		t.Logf("%s: trains carried %d of %d fault-free payload flit-hops (%.1f%%)",
			spec, cleanHops, hops, 100*float64(cleanHops)/float64(hops))
		if spec == "lattice:32" && 2*cleanHops <= hops {
			t.Fatalf("%s: trains carried only %d of %d fault-free payload flit-hops", spec, cleanHops, hops)
		}
		if aborted == 0 {
			t.Fatalf("%s: the fault cells drained no worm", spec)
		}
	}
}

// FuzzTrains drives small random lattice and gnm networks with unicast and
// multicast batches whose submit times collide on the same nanosecond, some
// of them resubmitting from completion hooks exactly one channel delay
// later (the instant a train captures), and requires trains and per-flit
// stepping to agree on every worm, counter, channel load, trace line, log
// line and delivery-hook call.
func FuzzTrains(f *testing.F) {
	f.Add(uint64(1), uint8(12), false, []byte{0, 3, 0, 1, 1, 0, 2, 0x81, 0, 5, 2, 1, 6, 0x83, 1})
	f.Add(uint64(7), uint8(20), true, []byte{3, 7, 0, 4, 7, 0, 5, 0x87, 0, 9, 1, 2, 2, 0, 2})
	f.Add(uint64(42), uint8(6), false, []byte{0, 0x85, 0, 1, 0x85, 0, 2, 0x85, 0, 3, 0x85, 0})
	f.Add(uint64(3), uint8(16), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18})
	f.Add(uint64(5), uint8(18), false, []byte{0, 7, 0x40, 3, 6, 0x41, 9, 7, 0x40, 5, 1, 0x42})
	// A 2-destination multicast whose first delivery schedules a call that
	// must pop before the second: it fails if the train's entry is pushed
	// ahead of the other worms' events captured before its own.
	f.Add(uint64(112), uint8('K'), true, []byte("+1A"))
	f.Fuzz(func(t *testing.T, seed uint64, size uint8, gnm bool, msgs []byte) {
		switches := 4 + int(size)%21
		var net *topology.Network
		var err error
		if gnm {
			net, err = topology.RandomIrregular(topology.GNMConfig{
				Switches: switches, ExtraLinks: switches / 2, MaxSwitchLinks: 4, Seed: seed,
			})
		} else {
			net, err = topology.RandomLattice(topology.DefaultLattice(switches, seed))
		}
		if err != nil {
			t.Skip(err)
		}
		lab, err := updown.New(net, updown.RootMinID)
		if err != nil {
			t.Skip(err)
		}
		router := core.NewRouter(lab)
		if len(msgs) > 3*24 {
			msgs = msgs[:3*24]
		}
		got := fuzzTrial(t, router, seed, msgs, false)
		want := fuzzTrial(t, router, seed, msgs, true)
		diffOutcome(t, "fuzz", got, want)
	})
}

// fuzzTrial decodes msgs three bytes per message — source, destination
// count (high bit: resubmit a unicast from the completion hook one
// ChanPropNs later) and submit slot (bit 6: every delivery schedules a
// logging call one ChanPropNs later, which lands among the worm's own
// tail-phase actions of that tick) — and runs them on a fresh simulator.
func fuzzTrial(t *testing.T, router *core.Router, seed uint64, msgs []byte, perFlit bool) trialOutcome {
	t.Helper()
	var logs []string
	cfg := sim.DefaultConfig()
	cfg.Logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
	s, err := sim.New(router, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if perFlit {
		sim.ForcePerFlit(s)
	}
	var trace bytes.Buffer
	s.SetTracer(s.JSONLTracer(&trace))
	procs := router.Net.NumProcs
	proc := func(i int) topology.NodeID { return topology.NodeID(router.Net.NumSwitches + i) }
	var worms []*sim.Worm
	delivered := func(w *sim.Worm, d topology.NodeID, at int64) {
		logs = append(logs, fmt.Sprintf("hook t=%d worm %d at %d", at, w.ID, d))
	}
	deliveredThenCall := func(w *sim.Worm, d topology.NodeID, at int64) {
		delivered(w, d, at)
		id := w.ID
		s.At(at+cfg.Params.ChanPropNs, func() {
			logs = append(logs, fmt.Sprintf("call t=%d after worm %d at %d", s.Now(), id, d))
		})
	}
	resubmit := func(w *sim.Worm, at int64) {
		w2, err := s.Submit(at+cfg.Params.ChanPropNs, w.Dests[0], []topology.NodeID{w.Src})
		if err != nil {
			t.Fatal(err)
		}
		w2.OnDelivered = delivered
		worms = append(worms, w2)
	}
	for i := 0; i+3 <= len(msgs); i += 3 {
		srcIdx := int(msgs[i]) % procs
		k := 1 + int(msgs[i+1]&0x7f)%min(8, procs-1)
		at := int64(msgs[i+2]%8) * 1000
		var dests []topology.NodeID
		for _, v := range rng.New(seed^uint64(i)).Choose(procs-1, k) {
			if v >= srcIdx {
				v++
			}
			dests = append(dests, proc(v))
		}
		w, err := s.Submit(at, proc(srcIdx), dests)
		if err != nil {
			t.Fatal(err)
		}
		w.OnDelivered = delivered
		if msgs[i+2]&0x40 != 0 {
			w.OnDelivered = deliveredThenCall
		}
		if msgs[i+1]&0x80 != 0 {
			w.OnComplete = resubmit
		}
		worms = append(worms, w)
	}
	err = s.RunUntilIdle(1e12)
	return collectOutcome(err, s, worms, trace.String(), logs)
}

// plannedSims builds a trains simulator and a per-flit one over the same
// router and submits the same mixed unicast/multicast plan to both.
func plannedSims(t *testing.T, router *core.Router, seed uint64, messages int) (trains, perFlit *sim.Simulator, wt, wp []*sim.Worm) {
	t.Helper()
	rand := rng.New(seed)
	procs := router.Net.NumProcs
	proc := func(i int) topology.NodeID { return topology.NodeID(router.Net.NumSwitches + i) }
	type msg struct {
		at    int64
		src   topology.NodeID
		dests []topology.NodeID
	}
	var plan []msg
	at := int64(0)
	for m := 0; m < messages; m++ {
		at += int64(rand.Intn(3000))
		srcIdx := rand.Intn(procs)
		k := 1
		if rand.Bool(0.25) {
			k = 2 + rand.Intn(min(12, procs-1)-1)
		}
		var dests []topology.NodeID
		for _, v := range rand.Choose(procs-1, k) {
			if v >= srcIdx {
				v++
			}
			dests = append(dests, proc(v))
		}
		plan = append(plan, msg{at, proc(srcIdx), dests})
	}
	for i, pf := range []bool{false, true} {
		s, err := sim.New(router, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if pf {
			sim.ForcePerFlit(s)
		}
		var worms []*sim.Worm
		for _, m := range plan {
			w, err := s.Submit(m.at, m.src, m.dests)
			if err != nil {
				t.Fatal(err)
			}
			worms = append(worms, w)
		}
		if i == 0 {
			trains, wt = s, worms
		} else {
			perFlit, wp = s, worms
		}
	}
	return trains, perFlit, wt, wp
}

// midRunState is everything a caller can read between Run calls.
func midRunState(s *sim.Simulator) string {
	c := s.Counters()
	c.Events = 0
	dump := s.DumpState()
	dump = dump[strings.IndexByte(dump, '\n')+1:] // header line carries events=
	return fmt.Sprintf("now=%d out=%d counters=%+v loads=%v through=%d inv=%v waits=%v cycle=%v\n%s",
		s.Now(), s.Outstanding(), c, s.ChannelLoads(), s.NodeThroughLoad(0), s.CheckInvariants(),
		s.WaitEdges(), s.WaitCycle(), dump)
}

// TestTrainsMidRunReadsMatchPerFlit stops both engines every 777 ns —
// inside train windows, between their ticks — and requires every read the
// API offers to agree; it then resets both mid-run and requires the next
// trial to agree too.
func TestTrainsMidRunReadsMatchPerFlit(t *testing.T) {
	router := specRouter(t, "lattice:32")
	trains, perFlit, _, _ := plannedSims(t, router, 5, 60)
	for until := int64(777); trains.Outstanding() > 0 || perFlit.Outstanding() > 0; until += 777 {
		if err := trains.Run(until); err != nil {
			t.Fatal(err)
		}
		if err := perFlit.Run(until); err != nil {
			t.Fatal(err)
		}
		if a, b := midRunState(trains), midRunState(perFlit); a != b {
			t.Fatalf("state at %d ns differs:\n trains   %s\n per-flit %s", until, a, b)
		}
		if until == 40*777 {
			trains.Reset()
			perFlit.Reset()
			trains, perFlit, _, _ = plannedSims(t, router, 6, 60)
		}
	}
	if opened, _ := sim.TrainStats(trains); opened == 0 {
		t.Fatal("no train opened")
	}
}

// TestTrainsMatchPerFlitUnderDrain drains worms with AbortWorms outside a
// declared fault trial — while trains are open — and requires the outcome
// to match per-flit stepping.
func TestTrainsMatchPerFlitUnderDrain(t *testing.T) {
	router := specRouter(t, "gnm:24+12")
	var evens []topology.ChannelID
	for c := 0; c < len(router.Net.Channels); c += 2 {
		evens = append(evens, topology.ChannelID(c))
	}
	for _, drainAt := range []int64{30_000, 48_120, 61_230} {
		for _, all := range []bool{true, false} {
			trains, perFlit, wt, wp := plannedSims(t, router, 9, 50)
			var openAtDrain uint64
			for _, s := range []*sim.Simulator{trains, perFlit} {
				s.At(drainAt, func() {
					if s == trains {
						openAtDrain, _ = sim.TrainStats(s)
					}
					if all {
						s.AbortWorms(nil)
					} else {
						s.AbortWorms(evens)
					}
				})
			}
			var out [2]trialOutcome
			for i, s := range []*sim.Simulator{trains, perFlit} {
				err := s.RunUntilIdle(1e12)
				out[i] = collectOutcome(err, s, [][]*sim.Worm{wt, wp}[i], "", nil)
			}
			diffOutcome(t, fmt.Sprintf("drain at %d (all=%v)", drainAt, all), out[0], out[1])
			if out[0].Counters.WormsAborted == 0 || openAtDrain == 0 {
				t.Fatalf("drain at %d aborted %d worms after %d trains opened", drainAt, out[0].Counters.WormsAborted, openAtDrain)
			}
		}
	}
}
