package ask

// Golden equality for the conservative parallel DES (DESIGN.md "Parallel
// DES"): a sharded fat-tree must produce byte-identical results, counters and
// virtual-time measurements to the serial build, for every shard count. These
// tests are the determinism contract's enforcement point — they compare
// complete TaskResult values (aggregation output, elapsed virtual time,
// receiver and switch counters) across shard counts, and they run under
// `make race`. FatTreeOptions.Shards is the only way to ask for lanes; the
// multi-rack preset always runs serial.

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// runFatTreeWorkload builds a 2×4 fat-tree with the given shard count and
// runs one cross-leaf aggregation with a sender on every leaf.
func runFatTreeWorkload(t *testing.T, shards int) (*TaskResult, int64) {
	t.Helper()
	opts := FatTreeOptions{Spines: 2, Leaves: 4, HostsPerLeaf: 2, Seed: 11, Shards: shards}
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{
		opts.HostAt(0, 1), opts.HostAt(1, 0), opts.HostAt(2, 0), opts.HostAt(3, 1),
	}
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	for i, s := range senders {
		job.Send(s, workload.Uniform(768, 6000, int64(60+i)))
	}
	return runJob(t, &fc.Deployment, job), int64(fc.Sim.Now())
}

// TestFatTreeShardedByteIdentical pins the sharded fat-tree to its serial
// golden on a fault-free run: every leaf aggregates, the spine re-aggregates
// cross-leaf residue, and the TaskResult must not move by a byte.
func TestFatTreeShardedByteIdentical(t *testing.T) {
	golden, goldenNow := runFatTreeWorkload(t, 0)
	for _, shards := range []int{2, 4} {
		got, gotNow := runFatTreeWorkload(t, shards)
		if !got.Result.Equal(golden.Result) {
			t.Fatalf("shards=%d: aggregation diverged from serial: %s",
				shards, got.Result.Diff(golden.Result, 8))
		}
		if !reflect.DeepEqual(got, golden) {
			t.Errorf("shards=%d: TaskResult diverged from serial:\n got: %+v\nwant: %+v",
				shards, got, golden)
		}
		if gotNow != goldenNow {
			t.Errorf("shards=%d: final clock %d != serial %d", shards, gotNow, goldenNow)
		}
	}
}

// TestFatTreeShardedSerialSeam verifies the fat-tree's serial fallback:
// shards <= 1 or a single-leaf topology never constructs a group.
func TestFatTreeShardedSerialSeam(t *testing.T) {
	for _, tc := range []struct {
		leaves, shards int
	}{{4, 0}, {4, 1}, {1, 8}} {
		fc, err := NewFatTreeCluster(FatTreeOptions{
			Spines: 2, Leaves: tc.leaves, HostsPerLeaf: 2, Seed: 3, Shards: tc.shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if fc.Net.Group() != nil {
			t.Errorf("leaves=%d shards=%d: expected serial build, got shard group",
				tc.leaves, tc.shards)
		}
	}
}

// TestFatTreeShardedTenantTimedReplay extends the golden lock to the
// multi-tenant timed-replay path: two corpus scenarios, one per tenant,
// replayed concurrently through a 2-tenant fat-tree must produce identical
// per-tenant results, virtual completion times and fabric counters at every
// shard count. This crosses shards both ways (receivers on leaf 0, senders
// on leaves 1 and 2) while admission control exercises the shared tenancy
// state from root context.
func TestFatTreeShardedTenantTimedReplay(t *testing.T) {
	const senders = 2
	names := map[core.TenantID]string{1: "flash-crowd", 2: "mixed-diurnal-growth"}
	parts := make(map[core.TenantID][][]core.TimedKV)
	for tn, name := range names {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s = s.WithTuples(2000)
		parts[tn] = workload.SplitTimedRoundRobin(core.CollectTimed(s.TimedStream()), senders)
	}

	run := func(shards int) map[core.TenantID]*TaskResult {
		opts := FatTreeOptions{
			Spines: 2, Leaves: 3, HostsPerLeaf: 2, Seed: 23, Shards: shards,
			Tenants: []tenancy.TenantSpec{{ID: 1, Weight: 1}, {ID: 2, Weight: 1}},
		}
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		pending := make(map[core.TenantID]*PendingTask)
		for i, tn := range []core.TenantID{1, 2} {
			spec := core.TaskSpec{
				ID: core.MakeTaskID(tn, 1), Receiver: opts.HostAt(0, i), Op: core.OpSum,
			}
			streams := make(map[core.HostID]core.TimedStream, senders)
			for j, part := range parts[tn] {
				h := opts.HostAt(1+j, i)
				spec.Senders = append(spec.Senders, h)
				streams[h] = core.SliceTimedStream(part)
			}
			pt, err := fc.StartTaskTimed(spec, streams)
			if err != nil {
				t.Fatal(err)
			}
			pending[tn] = pt
		}
		fc.Sim.Run(0)
		out := make(map[core.TenantID]*TaskResult)
		for tn, pt := range pending {
			res, err := pt.Get()
			if err != nil {
				t.Fatalf("shards=%d tenant %d: %v", shards, tn, err)
			}
			out[tn] = res
		}
		return out
	}

	golden := run(0)
	for _, shards := range []int{2, 3} {
		got := run(shards)
		for tn := range names {
			g, r := golden[tn], got[tn]
			if !r.Result.Equal(g.Result) {
				t.Fatalf("shards=%d tenant %d: result diverged: %s",
					shards, tn, r.Result.Diff(g.Result, 8))
			}
			if !reflect.DeepEqual(r, g) {
				t.Errorf("shards=%d tenant %d: TaskResult diverged:\n got: %+v\nwant: %+v",
					shards, tn, r, g)
			}
		}
	}
}

// TestFatTreeShardedSpineOutageDeterministic exercises the one path where
// the sharded fabric diverges from the serial event order — failover
// recovery's fabric-wide control rendezvous (fabricController.control) —
// and pins the weaker contract that applies there: conservation is still
// exact (the outage run's result equals the ground truth, checked inside
// ftOutageRun), recovery still completes, and two identically-seeded runs
// at the same shard count are byte-identical.
func TestFatTreeShardedSpineOutageDeterministic(t *testing.T) {
	opts := ftFailoverOptions(43)
	opts.Shards = 3
	scale := ftGoldenScale(t, opts)
	spec := ftFailoverWorkload(opts).Spec
	spine := netsim.SpineAddr(int(uint32(spec.ID)) % opts.Spines)
	a := ftOutageRun(t, opts, spine, scale*2/5, scale*3/5)
	b := ftOutageRun(t, opts, spine, scale*2/5, scale*3/5)
	if a.res.Elapsed != b.res.Elapsed {
		t.Fatalf("elapsed diverged across identical sharded runs: %v vs %v", a.res.Elapsed, b.res.Elapsed)
	}
	if !a.res.Result.Equal(b.res.Result) {
		t.Fatalf("results diverged across identical sharded runs: %s", a.res.Result.Diff(b.res.Result, 5))
	}
	if a.replays != b.replays {
		t.Fatalf("replay counts diverged across identical sharded runs: %d vs %d", a.replays, b.replays)
	}
	if a.replays == 0 {
		t.Fatal("no replays sent: the sharded outage did not exercise recovery")
	}
}

// TestFatTreeShardedMirroredTeardown holds the rendezvous around region
// release (fabricController.FreeRegion), which a receiver calls from its lane
// at teardown. Two tasks mirror each other across the lanes of a 2-shard
// fat-tree: task 1 streams from leaves 2 and 3 (lane 1) to leaf 0 (lane 0),
// task 2 from leaves 0 and 1 to leaf 2, with the same streams. They finish at
// the same instant, so both receivers free their regions in one parallel
// window; without the rendezvous the two lanes write the controller's maps
// at once, which `go test -race` reports. The results must equal the serial
// build's byte for byte.
func TestFatTreeShardedMirroredTeardown(t *testing.T) {
	run := func(shards int) ([]*TaskResult, int64) {
		opts := FatTreeOptions{Spines: 2, Leaves: 4, HostsPerLeaf: 2, Seed: 13, Shards: shards}
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		var jobs []*Job
		for i, leaves := range [][3]int{{0, 2, 3}, {2, 0, 1}} {
			job := NewJob(core.TaskSpec{ID: core.TaskID(1 + i), Receiver: opts.HostAt(leaves[0], 1), Op: core.OpSum})
			for j, l := range leaves[1:] {
				job.Send(opts.HostAt(l, 0), workload.Uniform(768, 6000, int64(90+j)))
			}
			jobs = append(jobs, job)
		}
		results, err := fc.Run(jobs...)
		if err != nil {
			t.Fatal(err)
		}
		if g := fc.Net.Group(); g != nil && g.Stats().ControlRendezvs == 0 {
			t.Fatalf("shards=%d: no teardown ran in a parallel window: %+v", shards, g.Stats())
		}
		return results, int64(fc.Sim.Now())
	}
	golden, goldenNow := run(0)
	if golden[0].Elapsed != golden[1].Elapsed {
		t.Fatalf("the mirrored tasks finish apart: %v and %v", golden[0].Elapsed, golden[1].Elapsed)
	}
	got, gotNow := run(2)
	if !reflect.DeepEqual(got, golden) || gotNow != goldenNow {
		t.Fatalf("sharded run diverged from serial:\n got: %+v (clock %d)\nwant: %+v (clock %d)", got, gotNow, golden, goldenNow)
	}
}

// TestFatTreeShardedReceiverLeafOutage holds the rendezvous around region
// re-allocation (fabricController.AllocRegion), which failover recovery calls
// from a lane process. Task 1's receiver sits on leaf 0 (lane 0) and its
// senders on leaves 2 and 3 (lane 1); task 2 runs on lane 1 alone, leaf 2 to
// leaf 3, with a stream long enough to outlast the recovery. Leaf 0 crashes
// and reboots mid-stream, and both receivers re-allocate their regions in one
// parallel window: task 1's at the leaves lane 1 owns, while task 2's traffic
// crosses them. A re-allocation that skips the rendezvous touches lane 1's
// switches and the controller's maps concurrently with lane 1, which
// `go test -race` reports. The run must stay exact, serve rendezvous, and
// repeat byte for byte per (seed, shards).
func TestFatTreeShardedReceiverLeafOutage(t *testing.T) {
	opts := ftFailoverOptions(67)
	opts.Leaves, opts.Shards = 4, 2
	type outcome struct {
		elapsed []sim.Time
		replays int64
		rendezv int64
	}
	run := func() outcome {
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		fc.Sim.At(sim.Time(0).Add(300*time.Microsecond), func() {
			if err := fc.CrashSwitch(netsim.LeafAddr(0)); err != nil {
				t.Error(err)
			}
		})
		fc.Sim.At(sim.Time(0).Add(400*time.Microsecond), func() {
			if err := fc.RebootSwitch(netsim.LeafAddr(0)); err != nil {
				t.Error(err)
			}
		})
		cross := NewJob(core.TaskSpec{ID: 1, Receiver: opts.HostAt(0, 0), Op: core.OpSum})
		cross.Send(opts.HostAt(2, 0), workload.Uniform(512, 20000, 72))
		cross.Send(opts.HostAt(3, 0), workload.Uniform(512, 20000, 73))
		local := NewJob(core.TaskSpec{ID: 2, Receiver: opts.HostAt(3, 1), Op: core.OpSum})
		local.Send(opts.HostAt(2, 1), workload.Uniform(512, 60000, 82))
		results, err := fc.Run(cross, local)
		if err != nil {
			t.Fatalf("tasks did not complete exactly across the receiver-leaf outage: %v", err)
		}
		var out outcome
		for _, res := range results {
			out.elapsed = append(out.elapsed, res.Elapsed)
		}
		for _, h := range fc.Hosts() {
			out.replays += fc.Daemon(h).FailoverStats().ReplaysSent
		}
		out.rendezv = fc.Net.Group().Stats().ControlRendezvs
		return out
	}
	a := run()
	if a.replays == 0 || a.rendezv == 0 {
		t.Fatalf("the outage exercised no recovery from a lane: %d replays, %d rendezvous", a.replays, a.rendezv)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical sharded runs differ:\n%+v\n%+v", a, b)
	}
}
