// Clock synchronization — the paper's third motivating application (citing
// Azevedo and Blough). A master broadcasts a time beacon; every node adjusts
// its clock on arrival. The quality of synchronization is bounded by the
// *skew*: the spread between the first and the last beacon arrival. A
// tree-based multicast delivers the beacon in one worm, so the skew is just
// the depth spread of the distribution tree; software multicast adds a full
// startup per forwarding round.
//
// The example broadcasts beacons from the master on a 128-node irregular
// network under background unicast traffic and reports arrival skew
// percentiles for SPAM versus binomial-tree software broadcast.
package main

import (
	"fmt"
	"log"

	spamnet "repro"
	"repro/internal/baseline"
	"repro/internal/stats"
	"repro/internal/workload"
)

const beacons = 20

func main() {
	sys, err := spamnet.NewLattice(128, spamnet.WithSeed(3))
	if err != nil {
		log.Fatal(err)
	}
	hwSkew, hwLat := measure(sys, true)
	swSkew, swLat := measure(sys, false)

	fmt.Println("clock-sync beacon broadcast on a 128-node irregular network")
	fmt.Printf("%d beacons under light background unicast traffic\n\n", beacons)
	fmt.Printf("%-24s %12s %12s %14s\n", "broadcast mechanism", "skew p50(us)", "skew p95(us)", "latency p50(us)")
	fmt.Printf("%-24s %12.2f %12.2f %14.2f\n", "SPAM multicast",
		hwSkew.Percentile(50), hwSkew.Percentile(95), hwLat.Percentile(50))
	fmt.Printf("%-24s %12.2f %12.2f %14.2f\n", "unicast binomial tree",
		swSkew.Percentile(50), swSkew.Percentile(95), swLat.Percentile(50))
	fmt.Printf("\nmedian skew improvement: %.1fx\n",
		swSkew.Percentile(50)/hwSkew.Percentile(50))
}

// measure sends beacons every 200 µs and returns (skew, latency) samples in
// microseconds.
func measure(sys *spamnet.System, hw bool) (*stats.Sample, *stats.Sample) {
	runner, err := workload.NewRunner(sys.Router(), sys.SimConfig())
	if err != nil {
		log.Fatal(err)
	}
	w := &beaconSync{hw: hw, skews: &stats.Sample{}, lats: &stats.Sample{}}
	if err := runner.Trial(w, 11); err != nil {
		log.Fatal(err)
	}
	return w.skews, w.lats
}

// beaconSync is one trial: light background unicast load plus the master's
// beacons, broadcast in hardware (SPAM) or by binomial-tree software
// forwarding. Completion hooks record each beacon's skew and latency.
type beaconSync struct {
	hw          bool
	skews, lats *stats.Sample
}

// Name implements workload.Workload.
func (b *beaconSync) Name() string { return "clocksync" }

// Generate implements workload.Workload.
func (b *beaconSync) Generate(g *workload.Gen) error {
	// Light background load: random unicasts.
	bg := workload.Mixed{RatePerProcPerUs: 0.002, Messages: 800}
	if err := bg.Generate(g); err != nil {
		return err
	}
	master := g.Proc(0)
	slaves := make([]spamnet.NodeID, 0, g.NumProcs()-1)
	for i := 1; i < g.NumProcs(); i++ {
		slaves = append(slaves, g.Proc(i))
	}
	for i := 0; i < beacons; i++ {
		t0 := int64(i) * 200_000
		if !b.hw {
			run, err := baseline.Start(g.Sim, baseline.BinomialTree, t0, master, slaves)
			if err != nil {
				return err
			}
			run.OnComplete(func(rn *baseline.Run) {
				first, last := rn.DoneNs, int64(0)
				for _, at := range rn.DeliveredNs {
					first, last = min(first, at), max(last, at)
				}
				b.skews.Add(float64(last-first) / 1000)
				b.lats.Add(float64(rn.Latency()) / 1000)
			})
			continue
		}
		w, err := g.Submit(t0, master, slaves)
		if err != nil {
			return err
		}
		w.OnComplete = func(w *spamnet.Message, _ int64) {
			first, last := w.ArrivalNs[0], w.ArrivalNs[0]
			for _, a := range w.ArrivalNs {
				first, last = min(first, a), max(last, a)
			}
			b.skews.Add(float64(last-first) / 1000)
			b.lats.Add(float64(w.Latency()) / 1000)
		}
	}
	return nil
}
