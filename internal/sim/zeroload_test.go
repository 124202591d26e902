package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/updown"
)

// TestZeroLoadOracleEveryFamily checks the engine against the closed form
// on every topology-zoo family: a lone unicast and a lone 8-way multicast
// on an otherwise idle network finish at exactly Router.ZeroLoadLatency.
func TestZeroLoadOracleEveryFamily(t *testing.T) {
	for _, spec := range []string{
		"lattice:32",
		"gnm:24+12",
		"mesh:5x4",
		"torus:5x5",
		"hypercube:4",
		"fattree:4x2",
	} {
		t.Run(spec, func(t *testing.T) {
			sp, err := topology.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			net, err := sp.Build(3)
			if err != nil {
				t.Fatal(err)
			}
			lab, err := updown.New(net, updown.RootMinID)
			if err != nil {
				t.Fatal(err)
			}
			r := core.NewRouter(lab)
			cfg := DefaultConfig()
			s, err := New(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if net.NumProcs < 9 {
				t.Fatalf("%d processors, need 9 for an 8-way multicast", net.NumProcs)
			}
			pick := rng.New(5)
			for _, k := range []int{1, 8} {
				perm := pick.Perm(net.NumProcs)
				src := topology.NodeID(net.NumSwitches + perm[0])
				dests := make([]topology.NodeID, k)
				for i := range dests {
					dests[i] = topology.NodeID(net.NumSwitches + perm[1+i])
				}
				s.Reset()
				w, err := s.Submit(0, src, dests)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntilIdle(idleCap); err != nil {
					t.Fatal(err)
				}
				want, err := r.ZeroLoadLatency(cfg.Params, src, dests)
				if err != nil {
					t.Fatal(err)
				}
				if got := w.Latency(); got != want {
					t.Fatalf("%d-destination multicast from %d to %v took %d ns, closed form is %d ns", k, src, dests, got, want)
				}
			}
		})
	}
}
