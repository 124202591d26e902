// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public layers, times every call into a
// layer from outside the program, checks that every simulated output is
// unchanged, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with tracing
// off; with --trace 1 they are the per-layer set, taken from in-memory spans
// recorded around each layer call, plus the tracing overhead.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig3-lattice --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//	bash perfbench/run.sh --workload serve-zoo --steady 10 --seconds 15
//	bash perfbench/run.sh --write-golden perfbench/golden.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose op digests are committed in golden.json.
const defaultSeed = 1

type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	outDir      string
	steady      int
	writeGolden string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name, or \"all\" ("+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&cfg.seed, "seed", defaultSeed, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", ".bench_build/perfbench-out", "directory for span dumps and campaign checkpoints")
	fs.IntVar(&cfg.steady, "steady", 0, "steadiness mode: two sets of this many runs per workload, each in its own process")
	fs.StringVar(&cfg.writeGolden, "write-golden", "", "recompute the default-seed op digests of every workload into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	switch {
	case cfg.writeGolden != "":
		if err := writeGolden(cfg.writeGolden, cfg.outDir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	case cfg.steady > 0:
		return steady(cfg, stdout, stderr)
	case cfg.workload == "all":
		return runAll(cfg, stdout, stderr)
	}
	res, err := runWorkload(cfg, stdout)
	if err == nil {
		err = printResult(stdout, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printResult(w io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runWorkload runs one workload in this process: inputs from the seed, the
// zero-load oracle, timed set-up, the op loop and the correctness gate.
func runWorkload(cfg config, out io.Writer) (*result, error) {
	def, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	workDir, err := os.MkdirTemp(mkdirAll(cfg.outDir), "run-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(workDir)
	b := def.new(cfg.seed, workDir)
	defer b.teardown()

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d clients=%d go=%s\n",
		def.name, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), b.clients(), runtime.Version())

	g, err := newGate(def.name, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := checkOracle(b.topologies()); err != nil {
		fmt.Fprintln(out, "gate: zero-load oracle FAILED:", err)
		return &result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}, nil
	}
	fmt.Fprintf(out, "gate: zero-load oracle ok on %d topologies\n", len(b.topologies()))

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	setups, err := timedSetups(b, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	recs, elapsed := runOps(b, cfg.seconds, tr)

	m := newMetricSet()
	attempted, failed := 0, 0
	for i := range recs {
		r := &recs[i]
		attempted++
		if r.err == nil && !g.check(r.k, r.out.digest, out) {
			r.err = errors.New("correctness gate mismatch")
		}
		if r.err != nil {
			failed++
			fmt.Fprintf(out, "op %d input=%d failed: %v\n", i, r.k, r.err)
			continue
		}
		fmt.Fprintf(out, "op %d input=%d class=%s traced=%v ms=%.3f flit_hops=%d\n", i, r.k, r.out.class, r.traced, ms(r.dur), r.out.hops)
	}
	g.report(out)
	endToEnd(m, recs, elapsed, setups)
	if cfg.trace {
		if err := b.layers(tr, m); err != nil {
			return nil, fmt.Errorf("layer measurements: %w", err)
		}
		traceOverhead(m, recs, elapsed)
		path := filepath.Join(mkdirAll(cfg.outDir), fmt.Sprintf("spans-%s-%d.jsonl", def.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", tr.len(), path)
	}
	m.print(out, cfg.trace)

	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	res := &result{
		Correct:   g.ok() && failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: m.value(d.name), Unit: d.unit}
	}
	return res, nil
}

// mkdirAll creates dir (best effort; the caller's next file operation
// reports a failure) and returns it.
func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}

// timedSetups runs the workload's set-up setupReps times and returns each
// duration; the state of the last one stays for the op loop.
func timedSetups(b bench, tr *tracer) ([]time.Duration, error) {
	const setupReps = 5
	var out []time.Duration
	for i := 0; i < setupReps; i++ {
		b.teardown()
		runtime.GC()
		id := tr.begin("setup", -1, -1)
		start := time.Now()
		err := b.setup(tr, id)
		d := time.Since(start)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}
