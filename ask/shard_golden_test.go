package ask

// Golden equality for the conservative parallel DES (DESIGN.md "Parallel
// DES"): a sharded cluster must produce byte-identical results, counters and
// virtual-time measurements to the serial build, for every shard count. These
// tests are the determinism contract's enforcement point — they compare
// complete TaskResult values (aggregation output, elapsed virtual time,
// receiver and switch counters) across shard counts, and they run under
// `make race`.

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tenancy"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// runMultiRackWorkload builds a 4-rack cluster with the given shard count and
// runs one cross-rack aggregation; hosts and streams are identical across
// calls so any divergence is the scheduler's.
func runMultiRackWorkload(t *testing.T, shards int) (*TaskResult, int64) {
	t.Helper()
	opts := MultiRackOptions{Racks: 4, HostsPerRack: 2, Seed: 7, Shards: shards}
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{
		opts.HostAt(0, 1), opts.HostAt(1, 0), opts.HostAt(2, 1), opts.HostAt(3, 0),
	}
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	for i, s := range senders {
		job.Send(s, workload.Uniform(768, 6000, int64(20+i)))
	}
	return runJob(t, &mc.Deployment, job), int64(mc.Sim.Now())
}

// TestMultiRackShardedByteIdentical pins the parallel scheduler to the
// serial golden: shard counts 2 and 4 must reproduce the serial run's
// TaskResult and final clock exactly.
func TestMultiRackShardedByteIdentical(t *testing.T) {
	golden, goldenNow := runMultiRackWorkload(t, 0)
	for _, shards := range []int{2, 4} {
		got, gotNow := runMultiRackWorkload(t, shards)
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

// TestMultiRackShardsOneIsSerialSeam verifies the serial fallback seam:
// Shards values of 0 and 1 (and over-asking a single-rack topology) must not
// construct a shard group at all — the exact pre-shard code path runs.
func TestMultiRackShardsOneIsSerialSeam(t *testing.T) {
	for _, tc := range []struct {
		racks, shards int
	}{{4, 0}, {4, 1}, {1, 8}} {
		mc, err := NewMultiRackCluster(MultiRackOptions{
			Racks: tc.racks, HostsPerRack: 2, Seed: 3, Shards: tc.shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		if mc.Net.Group() != nil {
			t.Errorf("racks=%d shards=%d: expected serial build, got shard group",
				tc.racks, tc.shards)
		}
		if mc.Sim.ShardLane() != -1 || mc.Sim.Group() != nil {
			t.Errorf("racks=%d shards=%d: root sim is grouped", tc.racks, tc.shards)
		}
	}
}

// TestMultiRackShardedParallelWindows asserts the sharded run actually
// exercises the parallel scheduler (guards against a silently-serial build
// making the golden test vacuous).
func TestMultiRackShardedParallelWindows(t *testing.T) {
	opts := MultiRackOptions{Racks: 4, HostsPerRack: 2, Seed: 7, Shards: 4}
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(1, 0), opts.HostAt(2, 0), opts.HostAt(3, 0)}
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	for i, s := range senders {
		job.Send(s, workload.Uniform(512, 4000, int64(40+i)))
	}
	runJob(t, &mc.Deployment, job)
	st := mc.Net.Group().Stats()
	if st.Windows == 0 || st.Injects == 0 {
		t.Fatalf("sharded run scheduled no windows/injects: %+v", st)
	}
	if st.ParallelWindows+st.InlineWindows == 0 {
		t.Fatalf("no shard-resident windows ran (all serial): %+v", st)
	}
}

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
