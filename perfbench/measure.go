package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// bench is one workload instance, built from the seed by its workloadDef.
// The generated inputs are fixed at construction; the program under test
// only ever sees them.
type bench interface {
	// topologies lists every network the workload runs on, for the
	// zero-load oracle.
	topologies() []topoRef
	// inputs is the number of distinct op inputs: op i runs input i mod
	// inputs(), so every op's digest has a committed or first-seen value
	// to match.
	inputs() int
	// clients is the number of goroutines issuing ops (a closed loop).
	clients() int
	// setup builds everything the ops need (systems, runners, services)
	// and runs the priming ops; it is what setup_s times. Spans of its
	// layer calls go under parent.
	setup(tr *tracer, parent int) error
	// op runs input k. A nil tracer is the untraced path the end-to-end
	// metrics come from.
	op(k int, tr *tracer, parent int) (opOut, error)
	// layers takes the traced-only measurements after the op loop and
	// derives the per-layer metrics from the spans.
	layers(tr *tracer, m *metricSet) error
	// teardown releases what setup built; it is safe to call repeatedly.
	teardown()
}

// opOut is what one op hands back to the loop.
type opOut struct {
	// hops is the op's simulated payload flit-hops: a model count no perf
	// change may alter, so hops per host second compares across engines.
	hops uint64
	// digest folds every deterministic model output of the op.
	digest uint64
	// class labels ops whose latencies are reported apart ("warm", "cold").
	class string
}

type opRecord struct {
	k      int
	traced bool
	dur    time.Duration
	out    opOut
	err    error
}

// tracePhases is how many alternating untraced/traced phases a traced run
// is split into, so both halves see the same host conditions.
const tracePhases = 8

// runOps issues ops from b.clients() goroutines, each sending its next op
// only after the previous one returned, until the run's seconds are spent.
// An untraced run measures one phase; a traced run alternates untraced and
// traced phases. elapsed[0] and elapsed[1] are the untraced and traced
// wall time.
func runOps(b bench, seconds float64, tr *tracer) (recs []opRecord, elapsed [2]time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	phases := 1
	if tr != nil {
		phases = tracePhases
	}
	var next atomic.Int64
	var mu sync.Mutex
	for p := 0; p < phases; p++ {
		traced := p%2 == 1
		var ptr *tracer
		if traced {
			ptr = tr
		}
		start := time.Now()
		deadline := start.Add(total / time.Duration(phases))
		var wg sync.WaitGroup
		for c := 0; c < b.clients(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					i := next.Add(1) - 1
					k := int(i % int64(b.inputs()))
					id := ptr.begin("op", -1, i)
					t0 := time.Now()
					out, err := b.op(k, ptr, id)
					d := time.Since(t0)
					ptr.end(id)
					mu.Lock()
					recs = append(recs, opRecord{k: k, traced: traced, dur: d, out: out, err: err})
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if traced {
			elapsed[1] += time.Since(start)
		} else {
			elapsed[0] += time.Since(start)
		}
	}
	return recs, elapsed
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees; every workload
// reports each of them from the untraced run. BENCHMARK.json lists the
// same names and units.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "ops/s"},
	{"flit_hops_per_s", "flit-hops/s"},
	{"op_p50_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayerMetrics come from the traced run. A layer a workload never
// reaches reports 0. BENCHMARK.json lists the same names and units.
var perLayerMetrics = []metricDef{
	{"topology.build_ms", "ms"},
	{"updown.label_ms", "ms"},
	{"core.compile_ms", "ms"},
	{"core.table_mib", "MiB"},
	{"core.decision_ns", "ns"},
	{"sim.trial_ms", "ms"},
	{"sim.trial_ms.light", "ms"},
	{"sim.trial_ms.heavy", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.events_per_flit_hop", "ratio"},
	{"sim.header_waits_per_msg", "count"},
	{"sim.header_waits_per_msg.light", "count"},
	{"sim.header_waits_per_msg.heavy", "count"},
	{"stats.observe_ns_per_msg", "ns"},
	{"faults.apply_ms", "ms"},
	{"updown.relabel_ms", "ms"},
	{"core.recompile_ms", "ms"},
	{"faults.swaps_per_op", "count"},
	{"faults.aborted_per_msg", "ratio"},
	{"faults.retried_per_msg", "ratio"},
	{"faults.delivered_ratio", "ratio"},
	{"faults.nonengine_ms", "ms"},
	{"faults.gap_explained", "ratio"},
	{"serve.req_ms.warm", "ms"},
	{"serve.req_ms.cold", "ms"},
	{"serve.handler_ms", "ms"},
	{"serve.transport_ms", "ms"},
	{"serve.trial_ms", "ms"},
	{"serve.pool_busy_high_water", "count"},
	{"serve.inflight_high_water", "count"},
	{"serve.rejected", "count"},
	{"serve.cold_gap_ms", "ms"},
	{"serve.cold_setup_ms", "ms"},
	{"serve.gap_explained", "ratio"},
	{"experiment.driver_ms", "ms"},
	{"campaign.run_ms", "ms"},
	{"campaign.cell_ms", "ms"},
	{"campaign.overhead_ms", "ms"},
	{"campaign.checkpoint_bytes", "bytes"},
	{"trace.overhead_pct", "%"},
}

// metricSet holds the measured values, each with its sample count.
type metricSet struct {
	vals  map[string]float64
	n     map[string]int
	order []string
	notes []string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]float64{}, n: map[string]int{}}
}

func (m *metricSet) set(name string, v float64, n int) {
	if _, ok := m.vals[name]; !ok {
		m.order = append(m.order, name)
	}
	m.vals[name] = v
	m.n[name] = n
}

func (m *metricSet) value(name string) float64 { return m.vals[name] }

// print writes every measured metric, with its unit and sample count, in
// the order measured, then the reported set's metrics the workload never
// reached.
func (m *metricSet) print(w io.Writer, traced bool) {
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		units[d.name] = d.unit
	}
	for _, name := range m.order {
		unit := units[name]
		if unit == "" {
			unit = extraUnits[name]
		}
		fmt.Fprintf(w, "metric %-34s %14.6g %-12s n=%d\n", name, m.vals[name], unit, m.n[name])
	}
	for _, note := range m.notes {
		fmt.Fprintln(w, note)
	}
	if traced {
		for _, d := range perLayerMetrics {
			if _, ok := m.vals[d.name]; !ok {
				fmt.Fprintf(w, "metric %-34s %14s %-12s (layer not on this workload's path: reported as 0)\n", d.name, "-", d.unit)
			}
		}
	}
}

// extraUnits are printed metrics outside the JSON sets: error_rate is 0
// whenever the benchmark passes (the JSON's attempted and failed carry
// it), and op_p90_ms exists only for runs with enough ops.
var extraUnits = map[string]string{
	"error_rate":            "ratio",
	"op_p90_ms":             "ms",
	"ops_per_s.untraced":    "ops/s",
	"ops_per_s.traced":      "ops/s",
	"op_p50_ms.warm":        "ms",
	"op_p50_ms.cold":        "ms",
	"sim.events_per_op":     "count",
	"faults.apply_n":        "count",
	"serve.cold_share":      "ratio",
	"campaign.cells_per_op": "count",
}

// percentile is the p-th percentile of xs by internal/stats' linear
// interpolation between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// p90Reportable reports whether n samples hold at least ten beyond the
// 90th percentile, the least a p90 needs to mean anything.
func p90Reportable(n int) bool { return n/10 >= 10 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd derives the end-to-end metrics from the untraced ops.
func endToEnd(m *metricSet, recs []opRecord, elapsed [2]time.Duration, setups []time.Duration) {
	var lat []float64
	var hops uint64
	attempted, failed := 0, 0
	classLat := map[string][]float64{}
	for _, r := range recs {
		if r.traced {
			continue
		}
		attempted++
		if r.err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(r.dur))
		hops += r.out.hops
		if r.out.class != "" {
			classLat[r.out.class] = append(classLat[r.out.class], ms(r.dur))
		}
	}
	secs := elapsed[0].Seconds()
	m.set("ops_per_s", float64(len(lat))/secs, len(lat))
	m.set("flit_hops_per_s", float64(hops)/secs, len(lat))
	m.set("op_p50_ms", median(lat), len(lat))
	if p90Reportable(len(lat)) {
		m.set("op_p90_ms", percentile(lat, 90), len(lat))
	} else {
		m.notes = append(m.notes, fmt.Sprintf("op_p90_ms withheld: %d ops hold fewer than ten beyond p90", len(lat)))
	}
	for _, class := range []string{"warm", "cold"} {
		if xs := classLat[class]; len(xs) > 0 {
			m.set("op_p50_ms."+class, median(xs), len(xs))
		}
	}
	var ss []float64
	for _, d := range setups {
		ss = append(ss, d.Seconds())
	}
	m.set("setup_s", median(ss), len(ss))
	m.set("peak_rss_mb", peakRSSMiB(), 1)
	if attempted > 0 {
		m.set("error_rate", float64(failed)/float64(attempted), attempted)
	}
}

// traceOverhead compares the traced and untraced halves of a traced run.
func traceOverhead(m *metricSet, recs []opRecord, elapsed [2]time.Duration) {
	var n [2]int
	for _, r := range recs {
		if r.err == nil {
			if r.traced {
				n[1]++
			} else {
				n[0]++
			}
		}
	}
	un := float64(n[0]) / elapsed[0].Seconds()
	tr := float64(n[1]) / elapsed[1].Seconds()
	m.set("ops_per_s.untraced", un, n[0])
	m.set("ops_per_s.traced", tr, n[1])
	if tr > 0 {
		m.set("trace.overhead_pct", (un/tr-1)*100, n[0]+n[1])
	}
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
