package main

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// campaignZoo is the only workload that reaches the experiment and
// campaign executors, checkpoint I/O and report rendering. One op runs the
// Figure-2 driver, then a grid campaign over small zoo topologies with two
// workers and checkpoints written into a fresh directory. Cells are short
// so that the executors' own work stays a visible share.
type campaignZoo struct {
	seeds   [][2]uint64 // per input: driver seed, manifest seed
	workDir string
	ctx     context.Context
}

const (
	campaignInputs   = 4
	campaignWorkers  = 2
	campaignFig2Runs = 2
)

var (
	campaignTopologies = []string{"mesh:4x4", "torus:4x4", "hypercube:4", "fattree:4x2"}
	campaignScenarios  = []string{"mixed", "allreduce-tree", "pipeline"}
	campaignFaults     = []string{"", "maintenance"}
	// fig2Sizes and fig2Topologies mirror experiment.DefaultFig2: lattices
	// of each size, seeded seed + i·7919.
	fig2Sizes      = []int{128, 256}
	fig2Topologies = 4
)

func newCampaignZoo(seed uint64, workDir string) bench {
	r := rng.New(seed ^ 0xca3b)
	c := &campaignZoo{workDir: workDir, ctx: context.Background()}
	for i := 0; i < campaignInputs; i++ {
		c.seeds = append(c.seeds, [2]uint64{r.Uint64(), r.Uint64()})
	}
	return c
}

func (c *campaignZoo) manifest(k int) *campaign.Manifest {
	return &campaign.Manifest{
		Name: "perfbench-zoo",
		Seed: c.seeds[k][1],
		Grids: []campaign.Grid{{
			Name:          "zoo",
			Topologies:    campaignTopologies,
			Scenarios:     campaignScenarios,
			FaultProfiles: campaignFaults,
			Trials:        2,
			Params:        workload.Params{Messages: 300},
		}},
	}
}

func (c *campaignZoo) topologies() []topoRef {
	var out []topoRef
	for _, s := range c.seeds {
		for _, n := range fig2Sizes {
			for i := 0; i < fig2Topologies; i++ {
				out = append(out, topoRef{"lattice:" + strconv.Itoa(n), s[0] + uint64(i)*7919})
			}
		}
	}
	for _, t := range campaignTopologies {
		out = append(out, topoRef{t, 0})
	}
	return out
}

func (c *campaignZoo) inputs() int  { return len(c.seeds) }
func (c *campaignZoo) clients() int { return 1 }
func (c *campaignZoo) teardown()    {}

// setup has nothing to build ahead (the executors build their systems
// per run), so it is one priming op.
func (c *campaignZoo) setup(tr *tracer, parent int) error {
	_, err := c.op(0, nil, parent)
	return err
}

func (c *campaignZoo) op(k int, tr *tracer, parent int) (opOut, error) {
	d := newDigest()
	id := tr.child("experiment.driver", parent)
	dr, err := experiment.RunDriver("fig2", experiment.DriverOpts{Trials: campaignFig2Runs, Workers: campaignWorkers, Seed: c.seeds[k][0]})
	tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	d.series(dr.Series)

	dir, err := os.MkdirTemp(c.workDir, "checkpoints-")
	if err != nil {
		return opOut{}, err
	}
	defer os.RemoveAll(dir)
	opts := campaign.Options{Workers: campaignWorkers, CheckpointDir: dir}
	var cells *telemetry.Histogram
	if tr != nil {
		cells = telemetry.NewHistogram()
		opts.Metrics = campaign.Metrics{CellSeconds: cells}
	}
	id = tr.child("campaign.run", parent)
	res, err := campaign.Run(c.ctx, c.manifest(k), opts)
	tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	var hops uint64
	for _, cell := range res.Cells {
		d.cell(cell)
		hops += cell.Counters.PayloadFlitHops
	}
	if tr != nil {
		n, sum, _, _, _ := cells.Snapshot()
		runs := tr.durations("campaign.run")
		tr.add("campaign.ops", 1)
		tr.add("campaign.cells", float64(n))
		tr.add("campaign.cell_seconds", sum)
		tr.add("campaign.overhead_ms", runs[len(runs)-1]-sum*1000/campaignWorkers)
		bytes, err := dirBytes(dir)
		if err != nil {
			return opOut{}, err
		}
		tr.add("campaign.checkpoint_bytes", float64(bytes))
	}
	return opOut{hops: hops, digest: d.h}, nil
}

func (c *campaignZoo) layers(tr *tracer, m *metricSet) error {
	ops := tr.counts["campaign.ops"]
	driver, runs := tr.durations("experiment.driver"), tr.durations("campaign.run")
	m.set("experiment.driver_ms", median(driver), len(driver))
	m.set("campaign.run_ms", median(runs), len(runs))
	m.set("campaign.cells_per_op", tr.counts["campaign.cells"]/ops, int(ops))
	m.set("campaign.cell_ms", tr.counts["campaign.cell_seconds"]*1000/tr.counts["campaign.cells"], int(tr.counts["campaign.cells"]))
	m.set("campaign.overhead_ms", tr.counts["campaign.overhead_ms"]/ops, int(ops))
	m.set("campaign.checkpoint_bytes", tr.counts["campaign.checkpoint_bytes"]/ops, int(ops))
	return setupLayers(tr, m, c.topologies()[0])
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
