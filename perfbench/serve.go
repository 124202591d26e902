package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	spamnet "repro"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/updown"
	"repro/internal/workload"
)

// serveZoo is a closed loop of small POST /run requests from two client
// connections, across loopback, to an in-process service with pool 2 and
// the paper lattice as its default system. Most requests hit a warm set of
// seven small systems; one in sixteen names a mid-size system that is not
// in the service's system cache, putting a topology build, labeling and
// table compile on the request path.
type serveZoo struct {
	reqs []serveReq
	// plain serves the end-to-end ops exactly as users run the service;
	// traced has telemetry on and a span around its handler.
	plain, traced *serveInstance
	client        *http.Client
	sys           *spamnet.System
}

type serveReq struct {
	class string // "warm" or "cold"
	spec  string // "" = the service's default system
	seed  uint64
	body  []byte
}

const (
	// serveInputs holds thirty cold requests, each with its own seed: a
	// cold (spec, seed) key recurs only after 29 other cold insertions,
	// more than the eight-entry FIFO system cache can hold, so it is
	// always built again.
	serveInputs   = 480
	serveColdEach = 16
	serveClients  = 2
	serveMessages = 300
	serveTrials   = 2
)

var (
	serveDefaultSpec = topoRef{"lattice:128", paperLatticeSeed}
	// serveWarm fits the service's eight-entry alternate-system cache
	// (the default system is not cached there).
	serveWarm      = []string{"", "mesh:6x6", "torus:6x6", "hypercube:5", "fattree:4x2", "gnm:48+24", "lattice:48"}
	serveCold      = []string{"hypercube:10", "torus:24x24", "gnm:512+256"}
	serveScenarios = []string{"mixed", "hotspot", "closed-loop", "allreduce-ring"}
)

func newServeZoo(seed uint64, _ string) bench {
	r := rng.New(seed ^ 0x5e7e)
	// Every warm request carries one seed: the service caches alternate
	// systems by (spec, seed), so a fresh seed would make it cold.
	warmSeed := r.Uint64()
	s := &serveZoo{}
	for i := 0; i < serveInputs; i++ {
		q := serveReq{class: "warm", spec: serveWarm[r.Intn(len(serveWarm))], seed: warmSeed}
		if i%serveColdEach == serveColdEach-1 {
			q = serveReq{class: "cold", spec: serveCold[(i/serveColdEach)%len(serveCold)], seed: r.Uint64()}
		}
		q.body = runBody(serveScenarios[r.Intn(len(serveScenarios))], q.spec, q.seed)
		s.reqs = append(s.reqs, q)
	}
	return s
}

func runBody(scenario, spec string, seed uint64) []byte {
	body, err := json.Marshal(serve.RunRequest{
		Scenario: scenario,
		Trials:   serveTrials,
		Seed:     seed,
		Params:   workload.Params{Topology: spec, Messages: serveMessages},
	})
	if err != nil {
		panic(err) // a fixed struct always encodes
	}
	return body
}

func (s *serveZoo) topologies() []topoRef {
	out := []topoRef{serveDefaultSpec}
	seen := map[topoRef]bool{}
	for _, q := range s.reqs {
		ref := topoRef{q.spec, q.seed}
		if q.spec != "" && !seen[ref] {
			seen[ref] = true
			out = append(out, ref)
		}
	}
	return out
}

func (s *serveZoo) inputs() int  { return len(s.reqs) }
func (s *serveZoo) clients() int { return serveClients }

// serveInstance is one service behind a loopback listener.
type serveInstance struct {
	svc  *serve.Service
	srv  *http.Server
	url  string
	done chan struct{}
}

func startService(sys *spamnet.System, reg *telemetry.Registry, wrap func(http.Handler) http.Handler) (*serveInstance, error) {
	svc, err := serve.New(serve.Config{System: sys, PoolSize: 2, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	in := &serveInstance{svc: svc, srv: &http.Server{Handler: wrap(svc.Handler())}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(in.done)
		_ = in.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return in, nil
}

func (in *serveInstance) stop() {
	if in == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = in.srv.Shutdown(ctx) // a timeout leaves Close below to cut connections
	_ = in.srv.Close()
	<-in.done
	in.svc.Close()
}

func (s *serveZoo) teardown() {
	s.plain.stop()
	s.traced.stop()
	s.plain, s.traced = nil, nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *serveZoo) setup(tr *tracer, parent int) error {
	sp, err := topology.ParseSpec(serveDefaultSpec.spec)
	if err != nil {
		return err
	}
	net, err := sp.Build(serveDefaultSpec.seed)
	if err != nil {
		return err
	}
	lab, err := updown.New(net, updown.RootMinID)
	if err != nil {
		return err
	}
	if s.sys, err = spamnet.FromParts(net, lab); err != nil {
		return err
	}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}}
	if s.plain, err = startService(s.sys, nil, func(h http.Handler) http.Handler { return h }); err != nil {
		return err
	}
	if err := s.prime(s.plain); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	// The traced service records a span around its handler, parented to
	// the client span named in the request header.
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			p, err := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
			if err != nil {
				h.ServeHTTP(w, r) // a priming request, outside any op
				return
			}
			id := tr.child("serve.handler", p)
			h.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	if s.traced, err = startService(s.sys, telemetry.NewRegistry(), wrap); err != nil {
		return err
	}
	return s.prime(s.traced)
}

// prime sends one request per warm system, filling the system cache.
func (s *serveZoo) prime(in *serveInstance) error {
	seen := map[string]bool{}
	for _, q := range s.reqs {
		if q.class == "warm" && !seen[q.spec] {
			seen[q.spec] = true
			if _, err := s.post(in, q.body, -1); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *serveZoo) post(in *serveInstance, body []byte, span int) (*serve.RunResponse, error) {
	req, err := http.NewRequest(http.MethodPost, in.url+"/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(span))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /run: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		return nil, fmt.Errorf("POST /run: %w", err)
	}
	return &rr, nil
}

func (s *serveZoo) op(k int, tr *tracer, parent int) (opOut, error) {
	q := s.reqs[k]
	in := s.plain
	if tr != nil {
		in = s.traced
	}
	id := tr.child("serve.req."+q.class, parent)
	rr, err := s.post(in, q.body, id)
	tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	d := newDigest()
	d.runResponse(rr)
	tr.add("sim.events", float64(rr.Counters.Events))
	tr.add("sim.hops", float64(rr.Counters.PayloadFlitHops))
	tr.add("sim.waits", float64(rr.Counters.HeaderAcquireWait))
	tr.add("sim.msgs", float64(rr.Counters.WormsSubmitted))
	return opOut{hops: rr.Counters.PayloadFlitHops, digest: d.h, class: q.class}, nil
}

func (s *serveZoo) layers(tr *tracer, m *metricSet) error {
	warm, cold := tr.durations("serve.req.warm"), tr.durations("serve.req.cold")
	m.set("serve.req_ms.warm", median(warm), len(warm))
	m.set("serve.req_ms.cold", median(cold), len(cold))
	m.set("serve.cold_share", float64(len(cold))/float64(len(warm)+len(cold)), len(warm)+len(cold))
	h := tr.durations("serve.handler")
	m.set("serve.handler_ms", median(h), len(h))
	self := append(tr.selfTimes("serve.req.warm"), tr.selfTimes("serve.req.cold")...)
	m.set("serve.transport_ms", median(self), len(self))

	scraped, err := scrape(s.traced.url + "/metrics")
	if err != nil {
		return err
	}
	trials := scraped["spamserve_trial_seconds_count"]
	m.set("serve.trial_ms", scraped[`spamserve_trial_seconds{quantile="0.5"}`]*1000, int(trials))
	m.set("serve.pool_busy_high_water", scraped["spamserve_pool_busy_high_water"], 1)
	m.set("serve.inflight_high_water", scraped["spamserve_inflight_high_water"], 1)
	m.set("serve.rejected", scraped["spamserve_admission_rejections_total"], 1)
	// Trial time comes from the service's own histogram; the engine counts
	// from the /run responses of the traced ops.
	events := tr.counts["sim.events"]
	m.set("sim.trial_ms", m.value("serve.trial_ms"), int(trials))
	m.set("sim.ns_per_event", scraped["spamserve_trial_seconds_sum"]*1e9/scraped["spamserve_sim_events_total"], int(trials))
	m.set("sim.events_per_flit_hop", events/tr.counts["sim.hops"], len(warm)+len(cold))
	m.set("sim.header_waits_per_msg", tr.counts["sim.waits"]/tr.counts["sim.msgs"], len(warm)+len(cold))

	// A cold request pays for building, labeling and compiling its
	// system; the mean of those should account for the mean gap between
	// cold and warm requests.
	var setupMs []float64
	seen := map[string]bool{}
	for _, q := range s.reqs {
		if q.class != "cold" || seen[q.spec] {
			continue
		}
		seen[q.spec] = true
		for i := 0; i < 3; i++ {
			id := tr.begin("serve.cold_setup", -1, -1)
			if _, err := buildSystem(topoRef{q.spec, q.seed}, tr, id, "serve.cold."); err != nil {
				return err
			}
			tr.end(id)
		}
		d := tr.durations("serve.cold_setup")
		setupMs = append(setupMs, median(d[len(d)-3:]))
	}
	coldSetup := mean(setupMs)
	gap := mean(cold) - mean(warm)
	m.set("serve.cold_setup_ms", coldSetup, len(setupMs))
	m.set("serve.cold_gap_ms", gap, len(cold))
	m.set("serve.gap_explained", coldSetup/gap, len(cold))
	return setupLayers(tr, m, serveDefaultSpec)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// scrape reads a Prometheus text exposition into series → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}
