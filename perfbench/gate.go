package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"

	spamnet "repro"
	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// digest folds model outputs into a 64-bit FNV-1a hash. It takes only
// deterministic model outputs: latency summaries and the engine's model
// counts. It never takes Counters.Events (an implementation step count a
// faster engine may change), the routing-policy hop counters, or any
// wall-clock or pool-size field.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) u64(v uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= uint64(byte(v >> (8 * i)))
		d.h *= 1099511628211
	}
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) str(s string) {
	d.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d.u64(uint64(s[i]))
	}
}

// counters folds the engine's model counts.
func (d *digest) counters(c sim.Counters) {
	for _, v := range []uint64{
		c.WormsSubmitted, c.WormsCompleted, c.WormsAborted,
		c.PayloadFlitHops, c.BubbleFlitHops, c.HeaderAcquireWait,
		c.RouteLostAborts, c.FlitsDropped,
	} {
		d.u64(v)
	}
}

// summary folds a latency summary's fields.
func (d *digest) summary(s *stats.Summary) {
	d.u64(uint64(s.Count()))
	for _, v := range []float64{s.Mean(), s.Min(), s.Max(), s.CI95(), s.Quantile(0.5), s.Quantile(0.9), s.Quantile(0.99)} {
		d.f64(v)
	}
}

// runResponse folds a /run response, leaving out elapsed_ms and pool_size.
func (d *digest) runResponse(r *serve.RunResponse) {
	d.str(r.Scenario)
	d.str(r.Topology)
	d.u64(uint64(r.Trials))
	d.u64(r.Seed)
	d.u64(uint64(r.Warmup))
	d.u64(uint64(r.Count))
	d.u64(uint64(r.CISamples))
	for _, v := range []float64{r.MeanUs, r.CI95Us, r.MinUs, r.MaxUs, r.P50Us, r.P90Us, r.P99Us, r.QuantileErrBound} {
		d.f64(v)
	}
	d.counters(r.Counters)
}

// series folds a driver's curves.
func (d *digest) series(ss []experiment.Series) {
	for _, s := range ss {
		d.str(s.Label)
		for _, p := range s.Points {
			d.f64(p.X)
			d.f64(p.Mean)
			d.f64(p.CI95)
			d.u64(uint64(p.N))
		}
	}
}

// cell folds a campaign grid cell, leaving out the table footprint (a
// layout property, not a model output).
func (d *digest) cell(c *campaign.CellResult) {
	d.str(c.Cell.String())
	for _, v := range []int{c.Switches, c.Processors, c.Links, c.Diameter, c.Trials} {
		d.u64(uint64(v))
	}
	d.u64(uint64(c.Count))
	for _, v := range []float64{c.MeanUs, c.CI95Us, c.MinUs, c.MaxUs, c.P50Us, c.P90Us, c.P99Us} {
		d.f64(v)
	}
	d.counters(c.Counters)
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigests maps each workload to the digest of every op input at the
// default seed, as hex.
type goldenDigests map[string][]string

// gate checks every op's digest: against the committed value at the
// default seed, and against the first op of the same input at any seed.
type gate struct {
	workload   string
	seed       uint64
	expected   []string
	seen       map[int]uint64
	checked    int
	mismatches int
}

func newGate(workload string, seed uint64) (*gate, error) {
	g := &gate{workload: workload, seed: seed, seen: map[int]uint64{}}
	if seed == defaultSeed {
		var gd goldenDigests
		if err := json.Unmarshal(goldenJSON, &gd); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
		g.expected = gd[workload]
		if len(g.expected) == 0 {
			return nil, fmt.Errorf("golden.json has no digests for %s", workload)
		}
	}
	return g, nil
}

func hex(d uint64) string { return fmt.Sprintf("%016x", d) }

// check reports whether the digest of input k matches.
func (g *gate) check(k int, d uint64, out io.Writer) bool {
	g.checked++
	want, ok := g.seen[k]
	if !ok && g.expected != nil {
		if k >= len(g.expected) {
			fmt.Fprintf(out, "gate: input %d has no committed digest\n", k)
			g.mismatches++
			return false
		}
		w, err := strconv.ParseUint(g.expected[k], 16, 64)
		if err != nil {
			fmt.Fprintf(out, "gate: bad committed digest %q\n", g.expected[k])
			g.mismatches++
			return false
		}
		want, ok = w, true
	}
	if !ok {
		g.seen[k] = d
		return true
	}
	if d != want {
		fmt.Fprintf(out, "gate: input %d digest %s, want %s\n", k, hex(d), hex(want))
		g.mismatches++
		return false
	}
	g.seen[k] = d
	return true
}

func (g *gate) ok() bool { return g.mismatches == 0 }

// report prints the outcome; at a seed without committed digests it prints
// each input's digest, so a parent commit and a change can be compared.
func (g *gate) report(out io.Writer) {
	if g.expected != nil {
		fmt.Fprintf(out, "gate: %d ops checked against committed digests (seed %d): %d mismatches\n", g.checked, g.seed, g.mismatches)
		return
	}
	fmt.Fprintf(out, "gate: %d ops checked for repeatability (seed %d has no committed digests): %d mismatches\n", g.checked, g.seed, g.mismatches)
	keys := make([]int, 0, len(g.seen))
	for k := range g.seen {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		fmt.Fprintf(out, "digest %s seed=%d input=%d %s\n", g.workload, g.seed, k, hex(g.seen[k]))
	}
}

// topoRef names one network a workload runs on.
type topoRef struct {
	spec string
	seed uint64
}

// checkOracle compares, on every topology, the simulated latency of an
// isolated multicast against the closed-form zero-load latency
// (System.ZeroLoadLatency), for a unicast, an 8-way multicast and a
// broadcast.
func checkOracle(topos []topoRef) error {
	checked := map[topoRef]bool{}
	for _, t := range topos {
		sp, err := topology.ParseSpec(t.spec)
		if err != nil {
			return err
		}
		if sp.Family != "lattice" && sp.Family != "gnm" {
			t.seed = 0 // only the random families consume the seed
		}
		if checked[t] {
			continue
		}
		checked[t] = true
		sys, err := spamnet.NewFromSpec(t.spec, spamnet.WithSeed(t.seed))
		if err != nil {
			return fmt.Errorf("%s: %w", t.spec, err)
		}
		procs := sys.Processors()
		r := rng.New(t.seed ^ 0x7a3e)
		for _, k := range []int{1, 8, len(procs) - 1} {
			k = min(k, len(procs)-1)
			perm := r.Perm(len(procs))
			src := procs[perm[0]]
			dests := make([]spamnet.NodeID, k)
			for i := range dests {
				dests[i] = procs[perm[1+i]]
			}
			s, err := sys.NewSession()
			if err != nil {
				return err
			}
			w, err := s.Multicast(0, src, dests)
			if err != nil {
				return err
			}
			if err := s.Run(); err != nil {
				return err
			}
			want, err := sys.ZeroLoadLatency(src, dests)
			if err != nil {
				return err
			}
			if got := w.Latency(); got != want {
				return fmt.Errorf("%s seed %d: %d-destination multicast from %d took %d ns, zero-load closed form is %d ns",
					t.spec, t.seed, k, src, got, want)
			}
		}
	}
	return nil
}

// writeGolden recomputes the default-seed digest of every op input of
// every workload and writes them as golden.json.
func writeGolden(path, outDir string, log io.Writer) error {
	gd := goldenDigests{}
	for _, def := range workloads {
		workDir, err := os.MkdirTemp(mkdirAll(outDir), "golden-")
		if err != nil {
			return err
		}
		b := def.new(defaultSeed, workDir)
		err = b.setup(nil, -1)
		for k := 0; err == nil && k < b.inputs(); k++ {
			var out opOut
			if out, err = b.op(k, nil, -1); err == nil {
				gd[def.name] = append(gd[def.name], hex(out.digest))
			}
		}
		b.teardown()
		os.RemoveAll(workDir)
		if err != nil {
			return fmt.Errorf("%s: %w", def.name, err)
		}
		fmt.Fprintf(log, "golden: %s: %d inputs\n", def.name, len(gd[def.name]))
	}
	data, err := json.MarshalIndent(gd, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
