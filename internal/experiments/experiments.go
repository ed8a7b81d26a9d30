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
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// defaultTelemetry, when enabled, is applied to every cluster the shared
// helpers build for experiments that did not configure their own telemetry;
// cmd/askbench's -telemetry flag sets it. lastTelemetry retains the most
// recently built instrumented cluster's observability set so the CLI can
// report it after an experiment finishes.
//
// telemetryMu guards both: with RunParallel, experiments build clusters from
// several worker goroutines concurrently. Each simulation itself remains
// single-goroutine deterministic — the mutex only protects this CLI-level
// reporting state.
var (
	telemetryMu      sync.Mutex
	defaultTelemetry telemetry.Config
	lastTelemetry    *telemetry.Set
)

// SetDefaultTelemetry configures the telemetry applied to experiment
// clusters built through the shared helpers.
func SetDefaultTelemetry(cfg telemetry.Config) {
	telemetryMu.Lock()
	defaultTelemetry = cfg
	telemetryMu.Unlock()
}

// LastTelemetry returns the observability set of the most recent
// instrumented experiment cluster (nil if telemetry was never enabled).
func LastTelemetry() *telemetry.Set {
	telemetryMu.Lock()
	defer telemetryMu.Unlock()
	return lastTelemetry
}

// newCluster is the shared-helper cluster constructor: it folds in the
// CLI-level default telemetry and records the instrumented set.
func newCluster(opts ask.Options) (*ask.Cluster, error) {
	if !opts.Telemetry.Enabled {
		telemetryMu.Lock()
		opts.Telemetry = defaultTelemetry
		telemetryMu.Unlock()
	}
	cl, err := ask.NewCluster(opts)
	if err == nil && cl.Tel != nil {
		telemetryMu.Lock()
		lastTelemetry = cl.Tel
		telemetryMu.Unlock()
	}
	return cl, err
}

// runAggregation spins up a fresh cluster and runs one task to completion,
// returning the outcome plus the cluster (for link/daemon statistics).
func runAggregation(opts ask.Options, spec core.TaskSpec, streams map[core.HostID]core.Stream) (*ask.TaskResult, *ask.Cluster, error) {
	cl, err := newCluster(opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := cl.Aggregate(spec, streams)
	if err != nil {
		return nil, nil, err
	}
	return res, cl, nil
}

// singleSenderTask builds the 1-sender → 1-receiver task used by the
// microbenchmarks. colocated puts sender and receiver on the same host
// (Fig. 3's single-machine setup).
func singleSenderTask(spec workload.Spec, rows int, colocated bool) (core.TaskSpec, map[core.HostID]core.Stream) {
	sender := core.HostID(1)
	if colocated {
		sender = 0
	}
	task := core.TaskSpec{
		ID:       1,
		Receiver: 0,
		Senders:  []core.HostID{sender},
		Op:       core.OpSum,
		Rows:     rows,
	}
	return task, map[core.HostID]core.Stream{sender: spec.Stream()}
}

// peakAKV tracks the highest simulated aggregation rate (tuples/s of
// virtual time) computed by any experiment since the last reset. The
// root-package benchmarks report it next to their wall-clock numbers.
// Atomic because RunParallel
// may compute rates from several worker goroutines; rates are non-negative,
// so the IEEE-754 bit pattern is monotone and a CAS-max is exact.
var peakAKV atomic.Uint64

// ResetPeakAKV clears the peak simulated-rate tracker.
func ResetPeakAKV() { peakAKV.Store(0) }

// PeakAKV returns the highest tuples/s (virtual time) computed since the
// last ResetPeakAKV, 0 if none.
func PeakAKV() float64 { return math.Float64frombits(peakAKV.Load()) }

// akvPerSec computes aggregated key-value tuples per second.
func akvPerSec(tuples int64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	rate := float64(tuples) / elapsed.Seconds()
	for {
		cur := peakAKV.Load()
		if math.Float64frombits(cur) >= rate || peakAKV.CompareAndSwap(cur, math.Float64bits(rate)) {
			break
		}
	}
	return rate
}

// checkExact verifies an experiment's functional output against the
// workload's reference aggregation; experiments fail loudly rather than
// report timings for wrong answers.
func checkExact(res *ask.TaskResult, spec workload.Spec) error {
	want := spec.Reference(core.OpSum)
	if !res.Result.Equal(want) {
		return fmt.Errorf("experiments: wrong aggregation result: %s", res.Result.Diff(want, 5))
	}
	return nil
}

// parallelRun is the outcome of a striped multi-task run.
type parallelRun struct {
	Elapsed time.Duration
	Cluster *ask.Cluster
	Results []*ask.TaskResult
	Merged  core.Result
}

// runParallelTasks runs K concurrent aggregation tasks on one cluster, one
// per data channel: a daemon binds each task to hash(ID) of its channels
// (§3.1), so a single task uses a single channel thread — the "N data
// channels" microbenchmarks therefore stripe the workload across N tasks,
// exactly as N applications multiplexing the service would. makeSpec gives
// task i's per-sender workload; every task runs senders → receiver.
func runParallelTasks(opts ask.Options, k, rowsPerTask int, senders []core.HostID,
	receiver core.HostID, makeSpec func(task int, sender core.HostID) workload.Spec) (*parallelRun, error) {
	cl, err := newCluster(opts)
	if err != nil {
		return nil, err
	}
	want := make(core.Result)
	var pts []*ask.PendingTask
	for i := 0; i < k; i++ {
		streams := make(map[core.HostID]core.Stream, len(senders))
		for _, h := range senders {
			spec := makeSpec(i, h)
			streams[h] = spec.Stream()
			want.Merge(spec.Reference(core.OpSum), core.OpSum)
		}
		pt, err := cl.StartTask(core.TaskSpec{
			ID:       core.TaskID(i + 1),
			Receiver: receiver,
			Senders:  senders,
			Op:       core.OpSum,
			Rows:     rowsPerTask,
		}, streams)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	end := cl.Sim.Run(0)
	run := &parallelRun{Elapsed: time.Duration(end), Cluster: cl, Merged: make(core.Result)}
	for _, pt := range pts {
		res, err := pt.Get()
		if err != nil {
			return nil, err
		}
		run.Results = append(run.Results, res)
		run.Merged.Merge(res.Result, core.OpSum)
	}
	if !run.Merged.Equal(want) {
		return nil, fmt.Errorf("experiments: striped run result wrong: %s", run.Merged.Diff(want, 5))
	}
	return run, nil
}

// balancedUniform builds a uniform workload whose vocabulary is balanced
// across the packet's tuple slots: every subspace 𝕂ᵢ holds exactly
// distinct/slots keys, so a uniform stream keeps every slot busy and
// packets pack full. The paper's goodput microbenchmarks (Fig. 3, 7, 8(a),
// 13) are in this regime; naturally hashed vocabularies carry a permanent
// ±√(keys/slot) imbalance that shows up in Fig. 8(b) instead.
func balancedUniform(layout *keyspace.Layout, distinct int, tuples, seed int64) workload.Spec {
	return balancedUniformRows(layout, distinct, tuples, seed, 0)
}

// balancedUniformRows additionally makes the pool collision-free in the
// switch's row addressing for a region of rowsPerCopy rows: every key of a
// subspace owns a distinct aggregator, the §2.2.2 "all keys fit in switch
// memory" regime the goodput microbenchmarks assume. rowsPerCopy == 0 skips
// the filter.
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
