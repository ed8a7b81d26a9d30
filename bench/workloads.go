package main

import (
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tenancy"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// task is one aggregation task of a job: its spec, the materialised sender
// inputs (exactly one of plain/timed is set) and the oracle's answer.
type task struct {
	spec  core.TaskSpec
	plain map[core.HostID][]core.KV
	timed map[core.HostID][]core.TimedKV
	want  core.Result
}

// job is everything one workload needs before timing starts: the inputs of
// every task, their reference results, and how to build a fresh cluster for
// a rep. The program under test only ever sees Slice streams over the inputs.
type job struct {
	tasks  []*task
	tuples int64
	// build returns a fresh, idle cluster; it runs once per rep and its time
	// is part of setup_s, never of the timed region.
	build func() (*cluster, error)
	// traced builds the same rack from its parts through the span-recording
	// fabric wrappers (nil on the fat-tree workloads).
	traced func(*spanLog) (*cluster, error)
	// twin, when set, builds the cluster whose simulated record this
	// workload's must equal byte for byte (fattree-sharded → serial).
	twin func() (*cluster, error)
	// lanes is the number of parallel event lanes the workload needs; its
	// host-time numbers are unresolved on a host with fewer CPUs.
	lanes int
}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	// contract marks the workloads BENCHMARK.json lists, the ones the
	// benchmark driver runs 22 times each within its time limit. That limit
	// pays for four workloads at runLength; the other two stay in this
	// program (go run ./bench, -check-repeat): rack-lossy costs within a few
	// percent of rack-absorb, whose inputs it shares, and fattree-sharded
	// needs both vCPUs of a shared host at once, which measures the host's
	// other tenants (README.md, "Which workloads the driver runs").
	contract bool
	// make generates the workload's inputs from seed. scale multiplies the
	// tuple counts (1 = the benchmark, ~0.01 in the tier-1 test); it never
	// changes the shape.
	make func(seed int64, scale float64) (*job, error)
}

var workloads = []workloadDef{
	{"rack-absorb", "uniform short keys that fit the switch: 97% absorbed, the fast path (proc switching, switchd ingress, pisa) does the work", true, rackAbsorb},
	{"rack-residue", "natural-language keys on a 64-row region: conflicts, swap/fetch rounds, hostd receive/merge and core.Result do the work", true, rackResidue},
	{"rack-lossy", "rack-absorb inputs under loss/dup/reorder/corruption: the only workload on the retransmit, seen/PktState and codec+CRC path", false, rackLossy},
	{"rack-timed", "burst-correlated scenario paced on the sim clock: most events and allocs per tuple, kernel share highest", true, rackTimed},
	{"fattree-serial", "two-tenant 2x8x2 fat-tree on the serial scheduler: fabric links, leaf-to-spine re-aggregation, tenancy admission", true, fatTreeSerial},
	{"fattree-sharded", "fattree-serial inputs on 2 shard lanes: exercises sim.ShardGroup, must equal serial byte for byte", false, fatTreeSharded},
}

// runLength is how many seconds one workload measures by default, and the
// run_seconds of BENCHMARK.json.
const runLength = 28

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func scaled(n int64, scale float64) int64 {
	if v := int64(float64(n) * scale); v > 64 {
		return v
	}
	return 64
}

// streamSeed derives one sender stream's seed from the run seed so that every
// (task, sender) pair draws an independent, reproducible stream.
func streamSeed(seed int64, task, sender int) int64 {
	return seed<<20 + int64(task)<<10 + int64(sender)
}

// rackJob is the shared shape of rack-absorb/-residue/-lossy: 3 senders → host
// 0, four concurrent tasks so every data channel carries one.
func rackJob(seed int64, rows int, link netsim.LinkConfig, spec func(task, sender int) workload.Spec) *job {
	j := &job{lanes: 1}
	senders := []core.HostID{1, 2, 3}
	for t := 1; t <= 4; t++ {
		tk := &task{
			spec:  core.TaskSpec{ID: core.TaskID(t), Receiver: 0, Senders: senders, Op: core.OpSum, Rows: rows},
			plain: make(map[core.HostID][]core.KV),
		}
		for _, h := range senders {
			tk.plain[h] = core.Collect(spec(t, int(h)).Stream())
		}
		j.add(tk)
	}
	opts := ask.Options{Hosts: 4, Link: link, Seed: seed}
	j.build = func() (*cluster, error) { return newRack(opts) }
	j.traced = func(log *spanLog) (*cluster, error) { return newTracedRack(opts, log) }
	return j
}

func rackAbsorb(seed int64, scale float64) (*job, error) {
	n := scaled(125_000, scale)
	return rackJob(seed, 0, netsim.LinkConfig{}, func(t, h int) workload.Spec {
		return workload.Uniform(4096, n, streamSeed(seed, t, h))
	}), nil
}

func rackResidue(seed int64, scale float64) (*job, error) {
	n := scaled(50_000, scale)
	return rackJob(seed, 64, netsim.LinkConfig{}, func(t, h int) workload.Spec {
		return workload.Dataset("yelp", n, streamSeed(seed, t, h))
	}), nil
}

func rackLossy(seed int64, scale float64) (*job, error) {
	n := scaled(125_000, scale)
	link := netsim.DefaultLinkConfig()
	link.Fault = netsim.Fault{LossProb: 0.01, DupProb: 0.005, ReorderProb: 0.01,
		ReorderDelay: 20 * time.Microsecond, CorruptProb: 0.002}
	return rackJob(seed, 0, link, func(t, h int) workload.Spec {
		return workload.Uniform(4096, n, streamSeed(seed, t, h))
	}), nil
}

func rackTimed(seed int64, scale float64) (*job, error) {
	sc, err := scenario.ByName("burst-correlated")
	if err != nil {
		return nil, err
	}
	tkvs := core.CollectTimed(sc.WithSeed(seed).WithTuples(scaled(200_000, scale)).TimedStream())
	tk := &task{
		spec:  core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: 64},
		timed: make(map[core.HostID][]core.TimedKV),
	}
	for i, part := range workload.SplitTimedRoundRobin(tkvs, 3) {
		h := core.HostID(i + 1)
		tk.spec.Senders = append(tk.spec.Senders, h)
		tk.timed[h] = part
	}
	j := &job{lanes: 1}
	j.add(tk)
	conf := core.DefaultConfig()
	conf.SwapThreshold = 256
	opts := ask.Options{Hosts: 4, Config: conf, Seed: seed}
	j.build = func() (*cluster, error) { return newRack(opts) }
	j.traced = func(log *spanLog) (*cluster, error) { return newTracedRack(opts, log) }
	return j, nil
}

// fatTreeJob is two tenants (weights 3:1) on a 2-spine × 8-leaf × 2-host
// fat-tree: tenant t receives on leaf 0 and sends from its slot on each of the
// other seven leaves, so every tuple crosses a leaf and may cross a spine.
func fatTreeJob(seed int64, scale float64, shards int) (*job, error) {
	opts := ask.FatTreeOptions{
		Spines: 2, Leaves: 8, HostsPerLeaf: 2, Seed: seed, Shards: shards,
		Tenants: []tenancy.TenantSpec{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}},
	}
	mgr, err := tenancy.NewManager(opts.Tenants, core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	n := scaled(50_000, scale)
	j := &job{lanes: shards}
	for i, tn := range opts.Tenants {
		tk := &task{
			spec: core.TaskSpec{
				ID: core.MakeTaskID(tn.ID, uint32(i+1)), Receiver: opts.HostAt(0, i),
				Op: core.OpSum, Rows: (mgr.Quota(tn.ID) / 2) &^ 1,
			},
			plain: make(map[core.HostID][]core.KV),
		}
		for l := 1; l < opts.Leaves; l++ {
			h := opts.HostAt(l, i)
			tk.spec.Senders = append(tk.spec.Senders, h)
			tk.plain[h] = core.Collect(workload.Uniform(4096, n, streamSeed(seed, i+1, int(h))).Stream())
		}
		j.add(tk)
	}
	j.build = func() (*cluster, error) { return newFatTree(opts) }
	if shards > 1 {
		serial := opts
		serial.Shards = 1
		j.twin = func() (*cluster, error) { return newFatTree(serial) }
	}
	return j, nil
}

func fatTreeSerial(seed int64, scale float64) (*job, error) { return fatTreeJob(seed, scale, 1) }

func fatTreeSharded(seed int64, scale float64) (*job, error) { return fatTreeJob(seed, scale, 2) }

// add appends a task, computes its oracle answer and counts its tuples.
func (j *job) add(t *task) {
	t.want = reduceByKey(t)
	for _, kvs := range t.plain {
		j.tuples += int64(len(kvs))
	}
	for _, tkvs := range t.timed {
		j.tuples += int64(len(tkvs))
	}
	j.tasks = append(j.tasks, t)
}
