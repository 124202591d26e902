package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// trialDigest runs one small mixed-traffic trial and returns its digest.
func trialDigest(t *testing.T, spec string, seed uint64) uint64 {
	t.Helper()
	sys, err := buildSystem(topoRef{spec, 1}, nil, -1, "")
	if err != nil {
		t.Fatal(err)
	}
	r, err := workload.NewRunner(sys.router, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := workload.Mixed{RatePerProcPerUs: 0.02, MulticastFraction: 0.1, MulticastDests: 4, Messages: 200}
	d := newDigest()
	if _, err := runTrial(r, w, seed, 20, "", stats.NewSummary(), d, nil, -1); err != nil {
		t.Fatal(err)
	}
	return d.h
}

func TestGateTripsOnPerturbedInput(t *testing.T) {
	base := trialDigest(t, "mesh:4x4", 7)
	if again := trialDigest(t, "mesh:4x4", 7); again != base {
		t.Fatalf("same trial digests %x then %x", base, again)
	}
	if other := trialDigest(t, "mesh:4x4", 8); other == base {
		t.Error("another trial seed left the digest unchanged")
	}
	if other := trialDigest(t, "torus:4x4", 7); other == base {
		t.Error("another topology left the digest unchanged")
	}

	g, err := newGate("fig3-lattice", defaultSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	if !g.check(0, base, os.Stderr) || !g.check(0, base, os.Stderr) {
		t.Fatal("repeated digest rejected")
	}
	if g.check(0, base+1, os.Stderr) || g.ok() {
		t.Error("gate passed a changed digest for a repeated input")
	}

	g, err = newGate("fig3-lattice", defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if g.check(0, base, os.Stderr) || g.ok() {
		t.Error("gate passed a digest that differs from the committed one")
	}
}

func TestGateIgnoresEventsAndWallClock(t *testing.T) {
	r := serve.RunResponse{
		Scenario: "mixed", Trials: 2, Seed: 3, Count: 540, MeanUs: 12.5, P50Us: 11,
		PoolSize: 2, ElapsedMs: 61.2,
		Counters: sim.Counters{Events: 1000, WormsSubmitted: 600, PayloadFlitHops: 90000, HeaderAcquireWait: 17},
	}
	digestOf := func(r serve.RunResponse) uint64 {
		d := newDigest()
		d.runResponse(&r)
		return d.h
	}
	want := digestOf(r)
	moved := r
	moved.PoolSize, moved.ElapsedMs = 8, 999
	moved.Counters.Events, moved.Counters.MisrouteHops, moved.Counters.AdaptiveHops = 5, 1, 1
	if got := digestOf(moved); got != want {
		t.Errorf("events, policy hops or wall-clock fields moved the /run digest: %x != %x", got, want)
	}
	moved.Counters.HeaderAcquireWait++
	if digestOf(moved) == want {
		t.Error("a header-wait change left the /run digest unchanged")
	}

	c := campaign.CellResult{Cell: campaign.Cell{Grid: "zoo", Topology: "mesh:4x4", Scenario: "mixed"}, Count: 10, MeanUs: 3}
	cellDigest := func(c campaign.CellResult) uint64 {
		d := newDigest()
		d.cell(&c)
		return d.h
	}
	wantCell := cellDigest(c)
	c.TableMB, c.TableCompression, c.Counters.Events = 4, 2, 77
	if cellDigest(c) != wantCell {
		t.Error("table footprint or events moved the cell digest")
	}
}

func TestInputsDeterministic(t *testing.T) {
	for _, def := range workloads {
		dir := t.TempDir()
		a, b := def.new(42, dir), def.new(42, dir)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generators at one seed differ", def.name)
		}
		if reflect.DeepEqual(a, def.new(43, dir)) {
			t.Errorf("%s: seeds 42 and 43 generate the same inputs", def.name)
		}
	}
}

func TestP90WithheldBelowTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		ops  int
		want bool
	}{{10, false}, {99, false}, {100, true}, {250, true}} {
		recs := make([]opRecord, tc.ops)
		for i := range recs {
			recs[i].dur = time.Duration(i+1) * time.Millisecond
		}
		m := newMetricSet()
		endToEnd(m, recs, [2]time.Duration{time.Second}, []time.Duration{time.Second})
		if _, got := m.vals["op_p90_ms"]; got != tc.want {
			t.Errorf("%d ops: op_p90_ms reported = %v, want %v", tc.ops, got, tc.want)
		}
		if _, ok := m.vals["op_p50_ms"]; !ok {
			t.Errorf("%d ops: op_p50_ms missing", tc.ops)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent
	}
	got := tr.selfTimes("op")
	if want := ms(100 - 50 - 10); len(got) != 1 || got[0] != want {
		t.Errorf("self time %v, want [%v]", got, want)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []listed                `json:"end_to_end"`
		PerLayer  []listed                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []listed, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndMetrics)
	same("per_layer", spec.PerLayer, perLayerMetrics)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
}

func TestGoldenCoversEveryInput(t *testing.T) {
	var gd goldenDigests
	if err := json.Unmarshal(goldenJSON, &gd); err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		if n, want := len(gd[def.name]), def.new(defaultSeed, t.TempDir()).inputs(); n != want {
			t.Errorf("%s: golden.json has %d digests, the workload has %d inputs", def.name, n, want)
		}
	}
}
