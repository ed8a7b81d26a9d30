// Package experiments reproduces every table and figure of the paper's
// evaluation (§5), plus ablations and extensions. Each experiment is a
// function of one flag, quick: it sets every value that depends on scale at
// its top — the benchmark-scale value, the test-scale one, and what the
// paper used — keeps the rest as package constants, and returns printable
// stats.Tables whose rows/series mirror what the paper reports.
//
// Workload volumes are scaled down from the paper's testbed sizes (the
// virtual-time simulation makes time measurements volume-proportional once
// pipelines fill; EXPERIMENTS.md records the scaling per experiment).
package experiments

import (
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/switchd"
	"repro/internal/workload"
)

// seed is every experiment's workload and cluster seed (the congestion
// ablation alone keeps its own, ablationCongestionSeed).
const seed = 1

// runAggregation builds a rack and runs one task on it, returning the
// outcome — only if it equals the job's reference (ask.Deployment.Run):
// experiments fail loudly rather than report timings for wrong answers — plus
// the cluster, for link/daemon statistics. Here as at every run site of the
// package the cluster's processes are released once the run is over
// (sim.Simulation.Close); its counters stay readable.
func runAggregation(opts ask.Options, j *ask.Job) (*ask.TaskResult, *ask.Cluster, error) {
	cl, err := ask.NewCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Sim.Close()
	res, err := cl.Run(j)
	if err != nil {
		return nil, nil, err
	}
	return res[0], cl, nil
}

// singleSenderTask builds the host 1 → host 0 task used by the
// microbenchmarks.
func singleSenderTask(w workload.Spec, rows int) *ask.Job {
	j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: rows})
	j.Send(1, w)
	return j
}

// akvPerSec computes aggregated key-value tuples per second.
func akvPerSec(tuples int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(tuples) / elapsed.Seconds()
}

// runParallelTasks runs K concurrent aggregation tasks on one cluster, one
// per data channel: a daemon binds each task to hash(ID) of its channels
// (§3.1), so a single task uses a single channel thread — the "N data
// channels" microbenchmarks therefore stripe the workload across N tasks,
// exactly as N applications multiplexing the service would. makeSpec gives
// task i's per-sender workload; every task runs senders → receiver. It
// returns the cluster and the virtual time at which the last task finished.
func runParallelTasks(opts ask.Options, k, rowsPerTask int, senders []core.HostID,
	receiver core.HostID, makeSpec func(task int, sender core.HostID) workload.Spec) (*ask.Cluster, time.Duration, error) {
	jobs := make([]*ask.Job, k)
	for i := range jobs {
		jobs[i] = ask.NewJob(core.TaskSpec{ID: core.TaskID(i + 1), Receiver: receiver, Op: core.OpSum, Rows: rowsPerTask})
		for _, h := range senders {
			jobs[i].Send(h, makeSpec(i, h))
		}
	}
	cl, err := ask.NewCluster(opts)
	if err != nil {
		return nil, 0, err
	}
	defer cl.Sim.Close()
	if _, err := cl.Run(jobs...); err != nil {
		return nil, 0, err
	}
	return cl, cl.Sim.Now().Sub(0), nil
}

// balancedUniformRows builds a uniform workload whose vocabulary is balanced
// across the packet's tuple slots: every subspace 𝕂ᵢ holds exactly
// distinct/slots keys, so a uniform stream keeps every slot busy and
// packets pack full. The paper's goodput microbenchmarks (Fig. 3, 7, 8(a),
// 13) are in this regime; naturally hashed vocabularies carry a permanent
// ±√(keys/slot) imbalance that shows up in Fig. 8(b) instead. The pool is
// also collision-free in the switch's row addressing for a region of
// rowsPerCopy rows: every key of a subspace owns a distinct aggregator, the
// §2.2.2 "all keys fit in switch memory" regime the goodput microbenchmarks
// assume. rowsPerCopy == 0 skips the filter.
func balancedUniformRows(layout *keyspace.Layout, distinct int, tuples, seed int64, rowsPerCopy int) workload.Spec {
	slots := layout.ShortSlots()
	// The 4-byte word encoding yields at most ~15.6k distinct keys; leave
	// headroom for hash imbalance when filling per-slot quotas.
	const maxPool = 12_000
	if distinct > maxPool {
		distinct = maxPool
	}
	perSlot := distinct / slots
	if perSlot == 0 {
		perSlot = 1
	}
	quota := make([]int, slots)
	rowUsed := make([]map[int]bool, slots)
	for i := range rowUsed {
		rowUsed[i] = make(map[int]bool)
	}
	keys := make([]string, 0, perSlot*slots)
	for rank := 0; len(keys) < perSlot*slots && rank < 15_624; rank++ {
		w := workload.Word(rank, workload.ShortKeys(4))
		p := layout.Place(w)
		if p.Class != keyspace.Short || quota[p.FirstSlot] >= perSlot {
			continue
		}
		if rowsPerCopy > 0 {
			row := switchd.RowIndex(p.KParts, rowsPerCopy)
			if rowUsed[p.FirstSlot][row] {
				continue // would collide with an earlier key's aggregator
			}
			rowUsed[p.FirstSlot][row] = true
		}
		quota[p.FirstSlot]++
		keys = append(keys, w)
	}
	return workload.Spec{
		Name:     "balanced-uniform",
		Distinct: len(keys),
		Tuples:   tuples,
		Keys:     keys,
		Seed:     seed,
	}
}

// microConfig is the configuration of the goodput microbenchmarks and the
// transport ablations: core.DefaultConfig with no medium groups and no shadow
// copies. The microbenchmarks use 4-byte keys, every one of which owns an
// aggregator (§2.2.2, see balancedUniformRows), so neither medium-key
// coalescing nor hot-key swapping has anything to do; the transport ablations
// hold the aggregation layout fixed while they vary the transport.
func microConfig() core.Config {
	c := core.DefaultConfig()
	c.MediumGroups = 0
	c.MediumSegs = 0
	c.SwapThreshold = 0
	return c
}

// shortLayout builds the all-short-slot layout used by the 4-byte-key
// microbenchmarks.
func shortLayout(numAAs int) *keyspace.Layout {
	c := microConfig()
	c.NumAAs = numAAs
	layout, err := keyspace.NewLayout(c)
	if err != nil {
		panic(err)
	}
	return layout
}
