package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds one child run; a run must end well within it.
const childTimeout = 180 * time.Second

// runChild runs this binary on one workload in its own process (so peak
// RSS is the workload's own), copies its output to log and returns its
// result line.
func runChild(cfg config, workload string, seed uint64, trace int, log io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"--workload", workload,
		"--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--out", cfg.outDir)
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(&out, log)
	cmd.Stderr = log
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runAll runs every workload, untraced and then traced, each in its own
// process, and prints one result with metrics named workload/metric.
func runAll(cfg config, stdout, stderr io.Writer) int {
	all := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runChild(cfg, def.name, cfg.seed, trace, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			all.Correct = all.Correct && res.Correct
			all.Attempted += res.Attempted
			all.Failed += res.Failed
			for name, v := range res.Metrics {
				all.Metrics[def.name+"/"+name] = v
			}
		}
	}
	if err := printResult(stdout, all); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// benchmarkSpec is the part of BENCHMARK.json steadiness mode checks.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs two sets of cfg.steady untraced runs of each workload, with
// seeds seed+1..seed+N in both sets, and checks them against the bounds in
// BENCHMARK.json: within each set, every end-to-end metric but setup_s
// must have a quartile spread (q3-q1)/median within its bound, and the
// second set's median must not be worse than the first's by more than the
// bound.
func steady(cfg config, stdout, stderr io.Writer) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: steadiness mode reads BENCHMARK.json from the working directory:", err)
		return 1
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	names := []string{cfg.workload}
	if cfg.workload == "all" || cfg.workload == "" {
		names = workloadNames()
	}
	pass := true
	for _, name := range names {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 1; i <= cfg.steady; i++ {
				res, err := runChild(cfg, name, cfg.seed+uint64(i), 0, io.Discard)
				if err != nil {
					fmt.Fprintln(stderr, "perfbench:", err)
					return 1
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Fprintf(stdout, "%s seed %d: correct=%v failed=%d\n", name, cfg.seed+uint64(i), res.Correct, res.Failed)
					pass = false
				}
				line, err := json.Marshal(res)
				if err != nil {
					fmt.Fprintln(stderr, "perfbench:", err)
					return 1
				}
				fmt.Fprintf(stdout, "run %s set %d seed %d %s\n", name, s+1, cfg.seed+uint64(i), line)
				for m, v := range res.Metrics {
					sets[s][m] = append(sets[s][m], v.Value)
				}
			}
		}
		for _, e := range spec.EndToEnd {
			var med [2]float64
			for s := range sets {
				xs := sets[s][e.Name]
				q1, q3 := percentile(xs, 25), percentile(xs, 75)
				med[s] = median(xs)
				spread := (q3 - q1) / med[s]
				verdict := "ok"
				if e.Name != "setup_s" && spread > e.Bound {
					verdict = "SPREAD OVER BOUND"
					pass = false
				}
				fmt.Fprintf(stdout, "steady %-13s set %d %-16s median %12.6g q1 %12.6g q3 %12.6g spread %6.4f bound %.3f %s\n",
					name, s+1, e.Name, med[s], q1, q3, spread, e.Bound, verdict)
			}
			worse := (med[1] - med[0]) / med[0]
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "SECOND SET WORSE BEYOND BOUND"
				pass = false
			}
			fmt.Fprintf(stdout, "steady %-13s drift %-16s %+.4f bound %.3f %s\n", name, e.Name, worse, e.Bound, verdict)
		}
	}
	if !pass {
		return 1
	}
	return 0
}
