// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment has a config struct with two presets —
// Default (benchmark scale) and Quick (test scale) — and returns printable
// stats.Tables whose rows/series mirror what the paper reports.
//
// Workload volumes are scaled down from the paper's testbed sizes (the
// virtual-time simulation makes time measurements volume-proportional once
// pipelines fill; EXPERIMENTS.md records the scaling per experiment).
package experiments

import (
	"errors"
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/workload"
)

// newCluster is the one rack constructor of the package.
func newCluster(opts ask.Options) (*ask.Cluster, error) {
	return ask.NewCluster(opts)
}

// deployment lists exactly what run calls on a cluster; both ask shells
// promote these from their shared core. (chaos.Fabric, asksim's deployment
// and bench's cluster are wider views of that core for their own callers.)
type deployment interface {
	StartTask(core.TaskSpec, map[core.HostID]core.Stream) (*ask.PendingTask, error)
	StartTaskTimed(core.TaskSpec, map[core.HostID]core.TimedStream) (*ask.PendingTask, error)
	Simulation() *sim.Simulation
}

// job is one task of a run with the reference its result must equal: the
// plain keyed reduce of the same input (Eq. 2), folded on the host from the
// workload, never taken from a cluster.
type job struct {
	spec    core.TaskSpec
	streams map[core.HostID]core.Stream
	// timed replaces streams for a task paced on the sim clock.
	timed map[core.HostID]core.TimedStream
	want  core.Result
	// refused, when set, inverts the job: its submission must fail with an
	// error errors.As can assign to it (tenancy's over-quota probes).
	refused any
}

// newJob starts a job for spec; send adds its senders.
func newJob(spec core.TaskSpec) *job {
	return &job{spec: spec, streams: make(map[core.HostID]core.Stream), want: make(core.Result)}
}

// send makes h a sender streaming w and folds w into the reference.
func (j *job) send(h core.HostID, w workload.Spec) {
	j.spec.Senders = append(j.spec.Senders, h)
	j.streams[h] = w.Stream()
	j.want.Merge(w.Reference(j.spec.Op), j.spec.Op)
}

// run is the one run-and-verify path of the package: start the jobs in
// order, run the simulation to quiescence, and hand back each task's outcome
// only if it equals the job's reference — experiments fail loudly rather
// than report timings for wrong answers. The cluster's processes are released
// on every path (sim.Simulation.Close); its counters stay readable. A refused
// job's slot in the results is nil.
func run(cl deployment, jobs ...*job) ([]*ask.TaskResult, error) {
	defer cl.Simulation().Close()
	pending := make([]*ask.PendingTask, len(jobs))
	for i, j := range jobs {
		var err error
		if j.timed != nil {
			pending[i], err = cl.StartTaskTimed(j.spec, j.timed)
		} else {
			pending[i], err = cl.StartTask(j.spec, j.streams)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: task %d: %w", j.spec.ID, err)
		}
	}
	cl.Simulation().Run(0)
	results := make([]*ask.TaskResult, len(jobs))
	for i, j := range jobs {
		res, err := pending[i].Get()
		if j.refused != nil {
			if err == nil {
				return nil, fmt.Errorf("experiments: task %d was admitted, want it refused", j.spec.ID)
			}
			if !errors.As(err, j.refused) {
				return nil, fmt.Errorf("experiments: task %d: refusal is not typed: %w", j.spec.ID, err)
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: task %d: %w", j.spec.ID, err)
		}
		if !res.Result.Equal(j.want) {
			return nil, fmt.Errorf("experiments: task %d: wrong aggregation result: %s", j.spec.ID, res.Result.Diff(j.want, 5))
		}
		results[i] = res
	}
	return results, nil
}

// runOne is run for a single task.
func runOne(cl deployment, j *job) (*ask.TaskResult, error) {
	results, err := run(cl, j)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runAggregation builds a rack and runs one task on it, returning the
// outcome plus the cluster (for link/daemon statistics).
func runAggregation(opts ask.Options, j *job) (*ask.TaskResult, *ask.Cluster, error) {
	cl, err := newCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := runOne(cl, j)
	return res, cl, err
}

// singleSenderTask builds the host 1 → host 0 task used by the
// microbenchmarks.
func singleSenderTask(w workload.Spec, rows int) *job {
	j := newJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: rows})
	j.send(1, w)
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
	jobs := make([]*job, k)
	for i := range jobs {
		jobs[i] = newJob(core.TaskSpec{ID: core.TaskID(i + 1), Receiver: receiver, Op: core.OpSum, Rows: rowsPerTask})
		for _, h := range senders {
			jobs[i].send(h, makeSpec(i, h))
		}
	}
	cl, err := newCluster(opts)
	if err != nil {
		return nil, 0, err
	}
	if _, err := run(cl, jobs...); err != nil {
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

// shortLayout builds the all-short-slot layout used by the 4-byte-key
// microbenchmarks.
func shortLayout(numAAs int) *keyspace.Layout {
	c := core.DefaultConfig()
	c.NumAAs = numAAs
	c.MediumGroups = 0
	c.MediumSegs = 0
	layout, err := keyspace.NewLayout(c)
	if err != nil {
		panic(err)
	}
	return layout
}
