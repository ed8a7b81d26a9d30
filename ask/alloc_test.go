//go:build !race

package ask

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// allocShape is one contract workload of bench/ (BENCHMARK.json) at about a
// hundredth of its size: the same generators, Rows, SwapThreshold and tenants,
// so the per-packet path it walks is the benchmark's. build returns a fresh
// deployment, the jobs of one rep and how many tuples they stream.
type allocShape struct {
	name string
	// ceiling is the committed heap-objects-per-tuple bound, ≈ 15% above the
	// value measured when it was last set (in the comment beside it). A
	// change that makes the per-packet path allocate again trips it; after an
	// intended change re-measure with -v and commit the new number.
	ceiling float64
	build   func(t *testing.T) (*Deployment, []*Job, int64)
}

const allocSeed = 1

// materialise generates a sender's input before the measured span, as bench/
// does: the deployment only ever sees a slice stream, so generating the keys
// is not counted against the per-packet path.
func materialise(spec workload.Spec) kvs { return core.Collect(spec.Stream()) }

func allocStreamSeed(task, sender int) int64 { return allocSeed<<20 + int64(task)<<10 + int64(sender) }

// allocRack is the shape of rack-absorb and rack-residue: 3 senders → host 0,
// four concurrent tasks so every data channel carries one.
func allocRack(rows int, n int64, gen func(n, seed int64) workload.Spec) func(*testing.T) (*Deployment, []*Job, int64) {
	return func(t *testing.T) (*Deployment, []*Job, int64) {
		cl, err := NewCluster(Options{Hosts: 4, Seed: allocSeed})
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*Job
		for task := 1; task <= 4; task++ {
			j := NewJob(core.TaskSpec{ID: core.TaskID(task), Receiver: 0, Op: core.OpSum, Rows: rows})
			for h := 1; h <= 3; h++ {
				j.Send(core.HostID(h), materialise(gen(n, allocStreamSeed(task, h))))
			}
			jobs = append(jobs, j)
		}
		return &cl.Deployment, jobs, 4 * 3 * n
	}
}

func allocRackTimed(t *testing.T) (*Deployment, []*Job, int64) {
	sc, err := scenario.ByName("burst-correlated")
	if err != nil {
		t.Fatal(err)
	}
	conf := core.DefaultConfig()
	conf.SwapThreshold = 256
	cl, err := NewCluster(Options{Hosts: 4, Config: conf, Seed: allocSeed})
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: 64})
	tkvs := core.CollectTimed(sc.WithSeed(allocSeed).WithTuples(2000).TimedStream())
	for i, part := range workload.SplitTimedRoundRobin(tkvs, 3) {
		j.SendTimed(core.HostID(i+1), part)
	}
	return &cl.Deployment, []*Job{j}, int64(len(tkvs))
}

// allocFatTree is fattree-serial: two tenants (weights 3:1) on a 2-spine ×
// 8-leaf × 2-host fat-tree, tenant t receiving on leaf 0 and sending from its
// slot on each of the other seven leaves.
func allocFatTree(t *testing.T) (*Deployment, []*Job, int64) {
	opts := FatTreeOptions{
		Spines: 2, Leaves: 8, HostsPerLeaf: 2, Seed: allocSeed, Shards: 1,
		Tenants: []tenancy.TenantSpec{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}},
	}
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	var jobs []*Job
	for i, tn := range opts.Tenants {
		j := NewJob(core.TaskSpec{
			ID: core.MakeTaskID(tn.ID, uint32(i+1)), Receiver: opts.HostAt(0, i),
			Op: core.OpSum, Rows: (fc.Tenancy.Quota(tn.ID) / 2) &^ 1,
		})
		for l := 1; l < opts.Leaves; l++ {
			h := opts.HostAt(l, i)
			j.Send(h, materialise(workload.Uniform(4096, n, allocStreamSeed(i+1, int(h)))))
		}
		jobs = append(jobs, j)
	}
	return &fc.Deployment, jobs, int64(len(opts.Tenants)) * int64(opts.Leaves-1) * n
}

var allocShapes = []allocShape{
	{"rack-absorb", 1.04 /* measured 0.90 */, allocRack(0, 1250, func(n, seed int64) workload.Spec {
		return workload.Uniform(4096, n, seed)
	})},
	{"rack-residue", 1.11 /* 0.97 */, allocRack(64, 500, func(n, seed int64) workload.Spec {
		return workload.Dataset("yelp", n, seed)
	})},
	{"rack-timed", 0.58 /* 0.50 */, allocRackTimed},
	{"fattree-serial", 1.52 /* 1.32 */, allocFatTree},
}

// TestAllocGate is the allocation gate CI holds:
// each contract shape runs twice with the collector off — the first rep fills
// the packet and frame free lists, which a collection would empty — and the
// second rep's heap objects per input tuple, from submitting the tasks to
// reading the last result, must stay under the shape's committed ceiling. The
// count depends on the model and the seed only, so it holds on any host; what
// it cannot see is cluster construction, which is outside the measured span
// as it is in bench/. Beside it the test logs the event kernel's counts per
// tuple (sim.Stats) — the event-count baseline — which it does not hold.
func TestAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, sh := range allocShapes {
		t.Run(sh.name, func(t *testing.T) {
			runtime.GC()
			var perTuple, n float64
			var ks sim.Stats
			for rep := 0; rep < 2; rep++ {
				cl, jobs, tuples := sh.build(t)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := cl.Run(jobs...); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				ks = cl.Sim.Stats()
				cl.Sim.Close()
				n = float64(tuples)
				perTuple = float64(after.Mallocs-before.Mallocs) / n
			}
			t.Logf("%s: %.3f heap objects per tuple (ceiling %.3f); kernel per tuple: %.3f fired, %.3f cancelled, %.3f dispatches; heap high-water %d",
				sh.name, perTuple, sh.ceiling, float64(ks.Fired)/n, float64(ks.Cancelled)/n, float64(ks.Dispatches)/n, ks.HeapHigh)
			if perTuple > sh.ceiling {
				t.Errorf("%s allocates %.3f objects per tuple on a warm rep, ceiling %.3f: the per-packet path allocates again (or re-measure and commit the ceiling after an intended change)",
					sh.name, perTuple, sh.ceiling)
			}
		})
	}
}
