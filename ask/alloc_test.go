//go:build !race

package ask

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
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
	// cold and warm are the committed heap-objects-per-tuple bounds, ≈ 15%
	// above the values measured when they were last set (in the comments
	// beside them), of a rep that starts with empty free lists and of one that
	// starts with the lists its predecessor filled. A change that makes the
	// per-packet path allocate again trips warm; one that makes each packet in
	// flight hold more objects trips cold, which counts every object live at
	// the rep's peak. What each packet in a receive queue holds barely shows
	// here: at this scale the receive backlogs are too short, and taking the
	// packets out of them moved these cold counts by under 3% while it halved
	// the full-scale ones. hostd's TestReceiveBacklogHoldsNoPacket guards the
	// backlog instead. After an intended change re-measure with -v and commit
	// the new numbers.
	cold, warm float64
	// coldBytes bounds the same cold rep's heap bytes per tuple, ≈ 15% above
	// the value measured when it was last set: a change that makes each packet
	// in flight, or a sender's buffered tuples, hold more bytes trips it.
	coldBytes float64
	// events, dispatches and heapHigh bound the event kernel's counts the same
	// way (sim.Stats, measured values beside them): kernel events per tuple,
	// fired plus popped dead, process switches per tuple, and the heap's
	// high-water mark. A per-packet retransmission timer or switch-hop event
	// that comes back trips them.
	events, dispatches float64
	heapHigh           int
	build              func(t *testing.T) (*Deployment, []*Job, int64)
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
	{"rack-absorb", 0.27 /* measured 0.235 */, 0.104 /* 0.088–0.090 */, 373 /* 324.4 */, 0.35 /* 0.304 */, 0.019 /* 0.0165 */, 493 /* 429 */, allocRack(0, 1250, func(n, seed int64) workload.Spec {
		return workload.Uniform(4096, n, seed)
	})},
	{"rack-residue", 0.77 /* 0.667 */, 0.26 /* 0.217–0.223 */, 414 /* 360.3 */, 0.81 /* 0.703 */, 0.026 /* 0.0223 */, 632 /* 550 */, allocRack(64, 500, func(n, seed int64) workload.Spec {
		return workload.Dataset("yelp", n, seed)
	})},
	{"rack-timed", 0.30 /* 0.260 */, 0.19 /* 0.149–0.162 */, 202 /* 176.0 */, 4.63 /* 4.026 */, 0.024 /* 0.0205 */, 43 /* 37 */, allocRackTimed},
	{"fattree-serial", 0.58 /* 0.500 */, 0.245 /* 0.211–0.213 */, 502 /* 436.7 */, 0.85 /* 0.743 */, 0.043 /* 0.0376 */, 493 /* 429 */, allocFatTree},
}

// TestAllocGate is the allocation gate CI holds: each contract shape runs
// twice with the collector off, on a fresh deployment each time. The first
// rep starts with the empty free lists its run owns (netsim.PoolOf), as every
// rep of bench/ does, so that rep's heap objects per input tuple — from
// submitting the tasks to reading the last result — count every per-packet
// object live at once, and must stay under the shape's cold ceiling; its
// heap bytes per tuple, which count what a sender's buffered tuples and each
// packet in flight hold, stay under the cold bytes ceiling. The second rep
// starts with the lists the first one filled, and its count must stay under
// the warm ceiling: the test moves the first run's lists into the second
// run's before it starts. The counts depend on the model and the seed only, so they
// hold on any host (the bytes on the Go runtime's size classes too, which the
// ceiling's margin absorbs); what they cannot see is cluster
// construction, which is outside the measured span as it is in bench/. The
// event kernel's counts of the warm rep (sim.Stats) are held beside them,
// against the shape's event ceilings.
func TestAllocGate(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, sh := range allocShapes {
		t.Run(sh.name, func(t *testing.T) {
			runtime.GC()
			runtime.GC()
			var perTuple, bytesPerTuple [2]float64
			var n float64
			var ks sim.Stats
			var lists netsim.Pool // what the first rep's run left on its free lists
			for rep := range perTuple {
				cl, jobs, tuples := sh.build(t)
				pool := netsim.PoolOf(cl.Sim)
				if rep > 0 {
					*pool = lists
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := cl.Run(jobs...); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				ks = cl.Sim.Stats()
				cl.Sim.Close()
				lists = *pool
				n = float64(tuples)
				perTuple[rep] = float64(after.Mallocs-before.Mallocs) / n
				bytesPerTuple[rep] = float64(after.TotalAlloc-before.TotalAlloc) / n
			}
			cold, warm, coldBytes := perTuple[0], perTuple[1], bytesPerTuple[0]
			events, dispatches := float64(ks.Fired+ks.Cancelled)/n, float64(ks.Dispatches)/n
			t.Logf("%s: %.3f heap objects and %.1f bytes per tuple cold (ceilings %.3f, %.1f), %.3f objects warm (ceiling %.3f); kernel per tuple: %.3f fired, %.3f cancelled, %.3f dispatches; heap high-water %d",
				sh.name, cold, coldBytes, sh.cold, sh.coldBytes, warm, sh.warm, float64(ks.Fired)/n, float64(ks.Cancelled)/n, dispatches, ks.HeapHigh)
			if cold > sh.cold {
				t.Errorf("%s allocates %.3f objects per tuple on a cold rep, ceiling %.3f: each packet in flight holds more objects (or re-measure and commit the ceiling after an intended change)",
					sh.name, cold, sh.cold)
			}
			if coldBytes > sh.coldBytes {
				t.Errorf("%s allocates %.1f bytes per tuple on a cold rep, ceiling %.1f: each packet in flight or each buffered tuple holds more bytes (or re-measure and commit the ceiling after an intended change)",
					sh.name, coldBytes, sh.coldBytes)
			}
			if warm > sh.warm {
				t.Errorf("%s allocates %.3f objects per tuple on a warm rep, ceiling %.3f: the per-packet path allocates again (or re-measure and commit the ceiling after an intended change)",
					sh.name, warm, sh.warm)
			}
			if events > sh.events || dispatches > sh.dispatches || ks.HeapHigh > sh.heapHigh {
				t.Errorf("%s: %.3f kernel events and %.3f dispatches per tuple, heap high-water %d; ceilings %.3f, %.3f, %d: a per-packet event is back (or re-measure and commit the ceilings after an intended change)",
					sh.name, events, dispatches, ks.HeapHigh, sh.events, sh.dispatches, sh.heapHigh)
			}
		})
	}
}
