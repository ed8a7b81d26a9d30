package experiments

// Shard-scaling study for the conservative parallel DES (DESIGN.md
// "Parallel DES"): the same fixed workload run at every requested shard
// count on both partitionable fabrics, verifying the determinism contract
// as it measures — a sharded run whose results differ from the serial
// golden by a byte fails the experiment rather than reporting a number for
// a broken scheduler.
//
// Every column is deterministic: virtual elapsed and the scheduler's window
// and mailbox counters, which prove the partition exists and carries the
// traffic. Wall time per shard count is a wall-clock measurement and lives
// where those belong: bench/'s fattree-sharded workload against
// fattree-serial (bench/README.md). (The table's Note still names the two
// root-package benchmarks that used to time it; the string is pinned by
// testdata/quick.json and changes with the next intended regeneration.)

import (
	"fmt"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ScalingConfig parameterizes the shard-scaling sweep.
type ScalingConfig struct {
	// Shards lists the shard counts to sweep; 1 runs the exact serial code
	// path and is the baseline every other row is compared with.
	Shards []int
	// Racks/HostsPerRack size the multi-rack fabric; one sender per
	// non-receiver rack keeps every TOR↔core cut busy.
	Racks        int
	HostsPerRack int
	// Spines/Leaves/HostsPerLeaf size the fat-tree; one sender per
	// non-receiver leaf keeps the leaf↔spine mesh busy.
	Spines          int
	Leaves          int
	HostsPerLeaf    int
	TuplesPerSender int64
	Distinct        int
	Seed            int64
}

// DefaultScaling is the benchmark-scale preset.
func DefaultScaling() ScalingConfig {
	return ScalingConfig{
		Shards: []int{1, 2, 4, 8},
		Racks:  8, HostsPerRack: 2,
		Spines: 2, Leaves: 8, HostsPerLeaf: 2,
		TuplesPerSender: 200_000, Distinct: 4096, Seed: 1,
	}
}

// QuickScaling is the test-scale preset.
func QuickScaling() ScalingConfig {
	return ScalingConfig{
		Shards: []int{1, 2, 4},
		Racks:  4, HostsPerRack: 2,
		Spines: 2, Leaves: 4, HostsPerLeaf: 2,
		TuplesPerSender: 10_000, Distinct: 512, Seed: 1,
	}
}

// scalingRun is one measured point: the workload's outcome plus the shard
// scheduler's structural counters.
type scalingRun struct {
	res     *ask.TaskResult
	virtual sim.Time
	stats   sim.ShardGroupStats
	lanes   int
}

// scalingCluster builds one partitionable topology at a shard count and
// reports its group count and hosts per group (host IDs are group-major).
func scalingCluster(topology string, cfg ScalingConfig, shards int) (fc *ask.FatTreeCluster, groups, perGroup int, err error) {
	switch topology {
	case "multirack":
		fc, err = ask.NewMultiRackCluster(ask.MultiRackOptions{
			Racks: cfg.Racks, HostsPerRack: cfg.HostsPerRack, Seed: cfg.Seed, Shards: shards,
		})
		return fc, cfg.Racks, cfg.HostsPerRack, err
	case "fattree":
		fc, err = ask.NewFatTreeCluster(ask.FatTreeOptions{
			Spines: cfg.Spines, Leaves: cfg.Leaves, HostsPerLeaf: cfg.HostsPerLeaf, Seed: cfg.Seed, Shards: shards,
		})
		return fc, cfg.Leaves, cfg.HostsPerLeaf, err
	}
	return nil, 0, 0, fmt.Errorf("experiments: unknown scaling topology %q", topology)
}

// runScaling measures one point: the topology's workload — host 0 receives,
// the first host of every other rack or leaf sends, so every cut is busy —
// at the given shard count.
func runScaling(topology string, cfg ScalingConfig, shards int) (scalingRun, error) {
	fc, groups, perGroup, err := scalingCluster(topology, cfg, shards)
	if err != nil {
		return scalingRun{}, err
	}
	j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for g := 1; g < groups; g++ {
		j.Send(core.HostID(g*perGroup), workload.Uniform(cfg.Distinct, cfg.TuplesPerSender, cfg.Seed+int64(g)))
	}
	defer fc.Sim.Close()
	results, err := fc.Run(j)
	if err != nil {
		return scalingRun{}, err
	}
	run := scalingRun{res: results[0], virtual: fc.Sim.Now()}
	if g := fc.Net.Group(); g != nil {
		run.stats, run.lanes = g.Stats(), g.Lanes()
	}
	return run, nil
}

// Scaling sweeps shard counts over both partitionable topologies. Every
// sharded run is checked byte-for-byte against its serial baseline (result
// map, receiver/switch counters, virtual elapsed, final clock) before its
// measurement is reported.
func Scaling(cfg ScalingConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Parallel DES: shard-scaling sweep (serial-equivalence enforced per row)",
		Note: fmt.Sprintf("multirack %d racks, fattree %d×%d, %d tuples/sender; wall time per shard count: BenchmarkMultiRackShards / BenchmarkFatTreeShards",
			cfg.Racks, cfg.Spines, cfg.Leaves, cfg.TuplesPerSender),
		Header: []string{"topology", "shards", "lanes", "parallel windows", "inline windows", "injects", "virtual elapsed"},
	}
	for _, topo := range []string{"multirack", "fattree"} {
		var base scalingRun
		for i, shards := range cfg.Shards {
			run, err := runScaling(topo, cfg, shards)
			if err != nil {
				return nil, fmt.Errorf("scaling %s shards=%d: %w", topo, shards, err)
			}
			if i == 0 {
				if shards > 1 {
					return nil, fmt.Errorf("scaling %s: Shards[0] must be the serial baseline (<= 1), got %d", topo, shards)
				}
				base = run
			} else {
				if !run.res.Result.Equal(base.res.Result) {
					return nil, fmt.Errorf("scaling %s shards=%d: result diverged from serial: %s",
						topo, shards, run.res.Result.Diff(base.res.Result, 5))
				}
				if run.res.Elapsed != base.res.Elapsed || run.virtual != base.virtual {
					return nil, fmt.Errorf("scaling %s shards=%d: virtual time diverged from serial (%v vs %v)",
						topo, shards, run.res.Elapsed, base.res.Elapsed)
				}
				if run.res.Recv != base.res.Recv || run.res.Switch != base.res.Switch {
					return nil, fmt.Errorf("scaling %s shards=%d: counters diverged from serial", topo, shards)
				}
			}
			t.AddRow(topo, shards, run.lanes,
				run.stats.ParallelWindows, run.stats.InlineWindows, run.stats.Injects,
				run.res.Elapsed.Sub(0))
		}
	}
	return t, nil
}
