package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
type span struct {
	Name string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Parent is the index of the enclosing span (-1 at the root); Op is the
	// op the span belongs to (-1 for set-up and layer measurements).
	Parent int   `json:"parent"`
	Op     int64 `json:"op"`
}

// tracer holds spans and counts in memory for the run; write dumps them
// when it ends. A nil *tracer records nothing, which is how the untraced
// path runs the same code.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// opOf returns the op a span belongs to, for children to inherit.
func (t *tracer) opOf(id int) int64 {
	if t == nil || id < 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].Op
}

// child opens a span under parent in the parent's op.
func (t *tracer) child(name string, parent int) int {
	return t.begin(name, parent, t.opOf(parent))
}

// add accumulates a count measured at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// durations returns the duration in ms of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.End-s.Start))
		}
	}
	return out
}

// total is the summed duration in ms of the spans named name.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.durations(name) {
		sum += d
	}
	return sum
}

// selfTimes returns, for every closed span named name, its duration minus
// the part of its interval that its child spans cover, in ms.
func (t *tracer) selfTimes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	var out []float64
	for id, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		out = append(out, ms(s.End-s.Start-covered(s.Start, s.End, children[id])))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi time.Duration, ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write dumps every span, one JSON object a line, then the counts.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	err = enc.Encode(map[string]any{"counts": t.counts})
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
