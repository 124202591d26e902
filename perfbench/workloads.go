package main

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

// workloadDef builds a workload's seeded inputs. workDir is a fresh
// directory inside the checkout the workload may write to.
type workloadDef struct {
	name string
	new  func(seed uint64, workDir string) bench
}

var workloads = []workloadDef{
	{"fig3-lattice", newFig3},
	{"fault-torus", newFaultTorus},
	{"serve-zoo", newServeZoo},
	{"campaign-zoo", newCampaignZoo},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() []string {
	var out []string
	for _, d := range workloads {
		out = append(out, d.name)
	}
	return out
}

// paperLatticeSeed selects the repository's Figure-3 platform: the
// 128-switch random lattice experiment.DefaultFig3 builds.
const paperLatticeSeed = 1998

// system is one network's layers.
type system struct {
	net    *topology.Network
	lab    *updown.Labeling
	router *core.Router
}

// buildSystem builds a network, labels it and compiles its routing tables,
// with a span around each layer call.
func buildSystem(ref topoRef, tr *tracer, parent int, prefix string) (*system, error) {
	sp, err := topology.ParseSpec(ref.spec)
	if err != nil {
		return nil, err
	}
	id := tr.child(prefix+"topology.build", parent)
	net, err := sp.Build(ref.seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.child(prefix+"updown.label", parent)
	lab, err := updown.New(net, updown.RootMinID)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.child(prefix+"core.compile", parent)
	router := core.NewRouter(lab)
	tr.end(id)
	return &system{net: net, lab: lab, router: router}, nil
}

// setupLayers splits set-up into its layers on the workload's main
// topology and times the routing decision on it.
func setupLayers(tr *tracer, m *metricSet, main topoRef) error {
	const reps = 3
	var sys *system
	for i := 0; i < reps; i++ {
		var err error
		if sys, err = buildSystem(main, tr, -1, ""); err != nil {
			return err
		}
	}
	for _, name := range []string{"topology.build", "updown.label", "core.compile"} {
		d := tr.durations(name)
		m.set(name+"_ms", median(d), len(d))
	}
	m.set("core.table_mib", float64(sys.router.TableMemStats().TableBytes)/(1<<20), 1)
	ns, n := decisionNs(sys.router)
	m.set("core.decision_ns", ns, n)
	return nil
}

// decisionNs times Router.CandidateChannels over a fixed sample of
// (switch, arrival class, LCA) triples: the median over passes of the mean
// ns per call, and the number of passes.
func decisionNs(r *core.Router) (float64, int) {
	type query struct {
		at, lca topology.NodeID
		arrival core.ArrivalClass
	}
	src := rng.New(paperLatticeSeed)
	s := r.Net.NumSwitches
	qs := make([]query, 4096)
	for i := range qs {
		qs[i] = query{
			at:      topology.NodeID(src.Intn(s)),
			lca:     topology.NodeID(src.Intn(s)),
			arrival: core.ArrivalClass(src.Intn(4)),
		}
	}
	const passes = 7
	var per []float64
	sink := 0
	for p := 0; p < passes; p++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for _, q := range qs {
				sink += len(r.CandidateChannels(q.at, q.arrival, q.lca))
			}
			n += len(qs)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	if sink < 0 {
		panic("unreachable")
	}
	return median(per), passes
}

// runTrial runs one warm trial on r, feeds its latencies past the warm-up
// into sum and folds the outputs into d. Spans and counts carry suffix.
func runTrial(r *workload.Runner, w workload.Workload, seed uint64, warmup int, suffix string,
	sum *stats.Summary, d *digest, tr *tracer, parent int) (sim.Counters, error) {
	id := tr.child("sim.trial"+suffix, parent)
	err := r.Trial(w, seed)
	tr.end(id)
	if err != nil {
		return sim.Counters{}, err
	}
	c := r.Sim().Counters()
	id = tr.child("stats.observe", parent)
	sum.Reset()
	r.EachLatencyUs(warmup, nil, sum.Add)
	tr.end(id)
	d.summary(sum)
	d.counters(c)
	tr.add("stats.observed", float64(sum.Count()))
	tr.add("sim.events"+suffix, float64(c.Events))
	tr.add("sim.hops"+suffix, float64(c.PayloadFlitHops))
	tr.add("sim.waits"+suffix, float64(c.HeaderAcquireWait))
	tr.add("sim.msgs"+suffix, float64(c.WormsSubmitted))
	return c, nil
}

// simLayers derives the engine and stats metrics from the trial spans
// recorded under each suffix.
func simLayers(tr *tracer, m *metricSet, suffixes []string) {
	var all []float64
	var events, hops, waits, msgs, trialMs float64
	for _, sfx := range suffixes {
		d := tr.durations("sim.trial" + sfx)
		all = append(all, d...)
		if sfx != "" {
			m.set("sim.trial_ms"+sfx, median(d), len(d))
			m.set("sim.header_waits_per_msg"+sfx, tr.counts["sim.waits"+sfx]/tr.counts["sim.msgs"+sfx], len(d))
		}
		events += tr.counts["sim.events"+sfx]
		hops += tr.counts["sim.hops"+sfx]
		waits += tr.counts["sim.waits"+sfx]
		msgs += tr.counts["sim.msgs"+sfx]
		trialMs += tr.total("sim.trial" + sfx)
	}
	m.set("sim.trial_ms", median(all), len(all))
	m.set("sim.ns_per_event", trialMs*1e6/events, len(all))
	m.set("sim.events_per_flit_hop", events/hops, len(all))
	m.set("sim.header_waits_per_msg", waits/msgs, len(all))
	m.set("sim.events_per_op", events/float64(len(all)), len(all))
	obs := tr.durations("stats.observe")
	m.set("stats.observe_ns_per_msg", tr.total("stats.observe")*1e6/tr.counts["stats.observed"], len(obs))
}

// fig3 is the paper's Figure-3 traffic on the paper's 128-switch lattice:
// 90% unicast, 10% 64-destination multicast. One op is a warm trial at a
// light rate, then one at a heavy rate.
type fig3 struct {
	seeds  [][2]uint64 // per input: light and heavy trial seeds
	runner *workload.Runner
	sum    *stats.Summary
}

const (
	fig3Inputs = 24
	// fig3Messages is the Figure-3 driver's default per-point budget.
	fig3Messages = 1500
)

var fig3Rates = [2]struct {
	suffix string
	rate   float64
}{{".light", 0.01}, {".heavy", 0.04}}

func newFig3(seed uint64, _ string) bench {
	r := rng.New(seed)
	f := &fig3{}
	for i := 0; i < fig3Inputs; i++ {
		f.seeds = append(f.seeds, [2]uint64{r.Uint64(), r.Uint64()})
	}
	return f
}

func fig3Mixed(rate float64) workload.Mixed {
	return workload.Mixed{RatePerProcPerUs: rate, MulticastFraction: 0.1, MulticastDests: 64, Messages: fig3Messages}
}

func (f *fig3) topologies() []topoRef { return []topoRef{{"lattice:128", paperLatticeSeed}} }
func (f *fig3) inputs() int           { return len(f.seeds) }
func (f *fig3) clients() int          { return 1 }
func (f *fig3) teardown()             { f.runner = nil }

func (f *fig3) setup(tr *tracer, parent int) error {
	sys, err := buildSystem(f.topologies()[0], nil, parent, "")
	if err != nil {
		return err
	}
	if f.runner, err = workload.NewRunner(sys.router, sim.DefaultConfig()); err != nil {
		return err
	}
	f.sum = stats.NewSummary()
	// One priming trial sizes the runner's arenas, so timed ops are warm.
	return f.runner.Trial(fig3Mixed(fig3Rates[1].rate), ^f.seeds[0][1])
}

func (f *fig3) op(k int, tr *tracer, parent int) (opOut, error) {
	d := newDigest()
	var hops uint64
	for i, rt := range fig3Rates {
		c, err := runTrial(f.runner, fig3Mixed(rt.rate), f.seeds[k][i], fig3Messages/10, rt.suffix, f.sum, d, tr, parent)
		if err != nil {
			return opOut{}, err
		}
		hops += c.PayloadFlitHops
	}
	return opOut{hops: hops, digest: d.h}, nil
}

func (f *fig3) layers(tr *tracer, m *metricSet) error {
	simLayers(tr, m, []string{fig3Rates[0].suffix, fig3Rates[1].suffix})
	return setupLayers(tr, m, f.topologies()[0])
}

// faultTorus is the fault-storm scenario on a 16x16 torus: paper mixed
// traffic under the default Poisson link failure and repair, so every
// mutation drains, relabels, recompiles and swaps the routing tables
// while the trial runs.
type faultTorus struct {
	in     [][2]uint64 // per input: trial seed, fault seed
	runner *workload.Runner
	sys    *system
	sum    *stats.Summary
}

const (
	faultInputs = 48
	// faultMessages is the fault-storm scenario's default budget.
	faultMessages = 2000
)

func newFaultTorus(seed uint64, _ string) bench {
	r := rng.New(seed ^ 0xfa17)
	f := &faultTorus{}
	for i := 0; i < faultInputs; i++ {
		f.in = append(f.in, [2]uint64{r.Uint64(), r.Uint64()})
	}
	return f
}

func (f *faultTorus) params(k int) workload.Params {
	return workload.Params{FaultProfile: "poisson", FaultSeed: f.in[k][1]}
}

// storm is input k's fault-storm scenario with its registry defaults.
func (f *faultTorus) storm(k int) workload.Workload {
	sc, _ := workload.Lookup("fault-storm")
	return sc.New(f.params(k))
}

func (f *faultTorus) topologies() []topoRef { return []topoRef{{"torus:16x16", 0}} }
func (f *faultTorus) inputs() int           { return len(f.in) }
func (f *faultTorus) clients() int          { return 1 }
func (f *faultTorus) teardown()             { f.runner, f.sys = nil, nil }

func (f *faultTorus) setup(tr *tracer, parent int) error {
	var err error
	if f.sys, err = buildSystem(f.topologies()[0], nil, parent, ""); err != nil {
		return err
	}
	if f.runner, err = workload.NewRunner(f.sys.router, sim.DefaultConfig()); err != nil {
		return err
	}
	f.sum = stats.NewSummary()
	return f.runner.Trial(f.storm(0), ^f.in[0][0])
}

func (f *faultTorus) op(k int, tr *tracer, parent int) (opOut, error) {
	d := newDigest()
	c, err := runTrial(f.runner, f.storm(k), f.in[k][0], faultMessages/10, "", f.sum, d, tr, parent)
	if err != nil {
		return opOut{}, err
	}
	fm := f.runner.FaultInjector().Metrics()
	for _, v := range []int{fm.EventsApplied, fm.EventsRejected, fm.LinkDowns, fm.LinkUps, fm.Swaps} {
		d.u64(uint64(v))
	}
	for _, v := range []uint64{fm.WormsAborted, fm.WormsRetried, fm.RetriesExhausted, fm.RouteLostAborts, fm.MessagesLost, uint64(fm.DownLinkNs)} {
		d.u64(v)
	}
	tr.add("faults.ops", 1)
	tr.add("faults.swaps", float64(fm.Swaps))
	tr.add("faults.aborted", float64(fm.WormsAborted))
	tr.add("faults.retried", float64(fm.WormsRetried))
	tr.add("faults.completed", float64(c.WormsCompleted))
	return opOut{hops: c.PayloadFlitHops, digest: d.h}, nil
}

func (f *faultTorus) layers(tr *tracer, m *metricSet) error {
	simLayers(tr, m, []string{""})
	ops := tr.counts["faults.ops"]
	msgs := tr.counts["sim.msgs"]
	m.set("faults.swaps_per_op", tr.counts["faults.swaps"]/ops, int(ops))
	m.set("faults.aborted_per_msg", tr.counts["faults.aborted"]/(ops*faultMessages), int(ops))
	m.set("faults.retried_per_msg", tr.counts["faults.retried"]/(ops*faultMessages), int(ops))
	m.set("faults.delivered_ratio", tr.counts["faults.completed"]/msgs, int(ops))

	apply, relabel, recompile, err := f.replay()
	if err != nil {
		return err
	}
	m.set("faults.apply_ms", median(apply), len(apply))
	m.set("faults.apply_n", float64(len(apply)), 1)
	m.set("updown.relabel_ms", median(relabel), len(relabel))
	m.set("core.recompile_ms", median(recompile), len(recompile))

	// The engine's share of a fault trial is its event count at the
	// ns/event of the same traffic without faults; the rest is what the
	// mutations cost.
	nsPerEvent, err := f.faultFreeNsPerEvent()
	if err != nil {
		return err
	}
	nonEngine := (tr.total("sim.trial") - tr.counts["sim.events"]*nsPerEvent/1e6) / ops
	m.set("faults.nonengine_ms", nonEngine, int(ops))
	m.set("faults.gap_explained", m.value("faults.swaps_per_op")*m.value("faults.apply_ms")/nonEngine, int(ops))
	return setupLayers(tr, m, f.topologies()[0])
}

// replay applies input 0's resolved fault script, one Injector.Apply per
// event, on an idle simulator, and splits each applied mutation into its
// relabel and recompile by repeating those two calls on a separate
// labeling and router.
func (f *faultTorus) replay() (apply, relabel, recompile []float64, err error) {
	spec, err := workload.FaultSpec(f.params(0))
	if err != nil {
		return nil, nil, nil, err
	}
	script, err := spec.Resolve(f.sys.net)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := sim.New(f.sys.router, sim.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	in, err := faults.NewInjector(s)
	if err != nil {
		return nil, nil, nil, err
	}
	lab, err := updown.NewWithDown(f.sys.net, f.sys.lab.Root, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	router := core.NewRouter(lab)
	for _, ev := range script {
		start := time.Now()
		ok, err := in.Apply(ev)
		d := time.Since(start)
		if err != nil {
			return nil, nil, nil, err
		}
		if !ok {
			continue
		}
		apply = append(apply, ms(d))
		start = time.Now()
		if err := lab.Relabel(in.DownChannels()); err != nil {
			return nil, nil, nil, err
		}
		relabel = append(relabel, ms(time.Since(start)))
		start = time.Now()
		router.Recompile(lab)
		recompile = append(recompile, ms(time.Since(start)))
	}
	if len(apply) == 0 {
		return nil, nil, nil, fmt.Errorf("fault script of input 0 applied no mutation")
	}
	return apply, relabel, recompile, nil
}

// faultFreeNsPerEvent runs the fault-storm's inner traffic without faults
// for three inputs and returns the median host ns per engine event.
func (f *faultTorus) faultFreeNsPerEvent() (float64, error) {
	inner := workload.Mixed{RatePerProcPerUs: 0.02, MulticastFraction: 0.1, MulticastDests: 8, Messages: faultMessages}
	var per []float64
	for k := 0; k < 3; k++ {
		start := time.Now()
		if err := f.runner.Trial(inner, f.in[k][0]); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(f.runner.Sim().Counters().Events))
	}
	sort.Float64s(per)
	return per[1], nil
}
