package ask

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// genStream builds a deterministic random stream: keys drawn from a pool of
// mixed lengths (short, medium, long), small values.
func genStream(seed int64, n, distinct int) []core.KV {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, distinct)
	for i := range pool {
		switch i % 3 {
		case 0:
			pool[i] = fmt.Sprintf("k%d", i) // short-ish
		case 1:
			pool[i] = fmt.Sprintf("med_%04d", i) // 8 bytes: medium
		default:
			pool[i] = fmt.Sprintf("longkey_number_%06d", i) // long
		}
	}
	kvs := make([]core.KV, n)
	for i := range kvs {
		kvs[i] = core.KV{Key: pool[rng.Intn(distinct)], Val: int64(rng.Intn(100) + 1)}
	}
	return kvs
}

// kvs is one sender's stream as a slice, the source Job.Send takes.
type kvs []core.KV

func (s kvs) Stream() core.Stream { return core.SliceStream(s) }

// jobOf is the Job for spec in which each of spec's senders streams its slice
// of perSender.
func jobOf(spec core.TaskSpec, perSender map[core.HostID][]core.KV) *Job {
	j := NewJob(spec)
	j.Spec.Senders = nil
	for _, h := range spec.Senders {
		j.Send(h, kvs(perSender[h]))
	}
	return j
}

// runJob runs j alone on d and fails the test on any error, a result that
// differs from the job's reference included.
func runJob(t *testing.T, d *Deployment, j *Job) *TaskResult {
	t.Helper()
	results, err := d.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// run builds a rack and runs spec on it to an exact result.
func run(t *testing.T, opts Options, spec core.TaskSpec, perSender map[core.HostID][]core.KV) *TaskResult {
	t.Helper()
	cl, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return runJob(t, &cl.Deployment, jobOf(spec, perSender))
}

func TestSingleSenderExact(t *testing.T) {
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
	data := map[core.HostID][]core.KV{1: genStream(1, 20000, 500)}
	res := run(t, Options{Hosts: 2, Seed: 1}, spec, data)
	if res.Switch.TuplesAggregated == 0 {
		t.Fatal("switch aggregated nothing")
	}
	if res.Elapsed <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestMultiSenderExact(t *testing.T) {
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
	data := map[core.HostID][]core.KV{
		1: genStream(1, 8000, 300),
		2: genStream(2, 8000, 300),
		3: genStream(3, 8000, 300),
	}
	run(t, Options{Hosts: 4, Seed: 2}, spec, data)
}

func TestColocatedSenderReceiver(t *testing.T) {
	// Receiver host 0 is also a sender (mappers colocated with reducers,
	// §5.5).
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{0, 1}}
	data := map[core.HostID][]core.KV{
		0: genStream(4, 5000, 200),
		1: genStream(5, 5000, 200),
	}
	run(t, Options{Hosts: 2, Seed: 3}, spec, data)
}

func TestExactUnderLoss(t *testing.T) {
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.05
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}
	data := map[core.HostID][]core.KV{
		1: genStream(6, 6000, 250),
		2: genStream(7, 6000, 250),
	}
	run(t, Options{Hosts: 3, Seed: 4, Link: link}, spec, data)
}

func TestExactUnderLossDupReorder(t *testing.T) {
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.03
	link.Fault.DupProb = 0.03
	link.Fault.ReorderProb = 0.05
	link.Fault.ReorderDelay = 30 * time.Microsecond
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}
	data := map[core.HostID][]core.KV{
		1: genStream(8, 5000, 200),
		2: genStream(9, 5000, 200),
	}
	run(t, Options{Hosts: 3, Seed: 5, Link: link}, spec, data)
}

func TestExactUnderHeavyLossManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed fault sweep")
	}
	for seed := int64(0); seed < 5; seed++ {
		link := netsim.DefaultLinkConfig()
		link.Fault.LossProb = 0.15
		link.Fault.DupProb = 0.05
		link.Fault.ReorderProb = 0.1
		link.Fault.ReorderDelay = 50 * time.Microsecond
		spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
		data := map[core.HostID][]core.KV{1: genStream(100+seed, 3000, 150)}
		run(t, Options{Hosts: 2, Seed: seed, Link: link}, spec, data)
	}
}

func TestShadowCopyDisabledStillExact(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.ShadowCopy = false
	cfg.SwapThreshold = 0
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
	data := map[core.HostID][]core.KV{1: genStream(10, 10000, 400)}
	run(t, Options{Hosts: 2, Seed: 6, Config: cfg}, spec, data)
}

func TestSwapsHappenAndStayExact(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SwapThreshold = 8 // aggressive swapping
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Rows: 64}
	// Many distinct keys + tiny region: constant conflicts → many swaps.
	data := map[core.HostID][]core.KV{1: genStream(11, 20000, 5000)}
	res := run(t, Options{Hosts: 2, Seed: 7, Config: cfg}, spec, data)
	if res.Recv.Swaps == 0 {
		t.Fatal("no swaps occurred despite aggressive threshold")
	}
}

func TestSwapsUnderLossStayExact(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SwapThreshold = 8
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.05
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}, Rows: 64}
	data := map[core.HostID][]core.KV{
		1: genStream(12, 8000, 3000),
		2: genStream(13, 8000, 3000),
	}
	res := run(t, Options{Hosts: 3, Seed: 8, Config: cfg, Link: link}, spec, data)
	if res.Recv.Swaps == 0 {
		t.Fatal("expected swaps")
	}
}

func TestTinyRegionExact(t *testing.T) {
	// 2 rows total (1 per copy): nearly everything conflicts and falls back
	// to the host; the result must still be exact.
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Rows: 2}
	data := map[core.HostID][]core.KV{1: genStream(14, 5000, 1000)}
	res := run(t, Options{Hosts: 2, Seed: 9}, spec, data)
	if res.Recv.ResidueTuples == 0 {
		t.Fatal("expected host-side residue with a tiny region")
	}
}

func TestTransportOnlyTask(t *testing.T) {
	// Rows < 0: the SparkSHM mode — ASK transport without INA.
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Rows: -1}
	data := map[core.HostID][]core.KV{1: genStream(15, 5000, 200)}
	res := run(t, Options{Hosts: 2, Seed: 10}, spec, data)
	if res.Switch.TuplesAggregated != 0 {
		t.Fatal("transport-only task used switch aggregators")
	}
	if res.Recv.SwitchEntries != 0 {
		t.Fatal("transport-only task fetched switch state")
	}
}

func TestAllOperators(t *testing.T) {
	for _, op := range []core.Op{core.OpSum, core.OpMax, core.OpMin, core.OpCount} {
		spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}, Op: op}
		data := map[core.HostID][]core.KV{
			1: genStream(20, 4000, 150),
			2: genStream(21, 4000, 150),
		}
		run(t, Options{Hosts: 3, Seed: 11}, spec, data)
	}
}

func TestSequentialTasksReuseChannels(t *testing.T) {
	// Persistent channels serve several tasks in sequence; reliability
	// state carries across tasks.
	cl, err := NewCluster(Options{Hosts: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		spec := core.TaskSpec{ID: core.TaskID(i), Receiver: 0, Senders: []core.HostID{1, 2}}
		data := map[core.HostID][]core.KV{
			1: genStream(int64(30+i), 3000, 100),
			2: genStream(int64(40+i), 3000, 100),
		}
		runJob(t, &cl.Deployment, jobOf(spec, data))
	}
}

func TestDeterministicRuns(t *testing.T) {
	t.Run("lossy", func(t *testing.T) {
		make_ := func() *TaskResult {
			link := netsim.DefaultLinkConfig()
			link.Fault.LossProb = 0.02
			spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
			data := map[core.HostID][]core.KV{1: genStream(60, 4000, 200)}
			return run(t, Options{Hosts: 2, Seed: 42, Link: link}, spec, data)
		}
		a, b := make_(), make_()
		if a.Elapsed != b.Elapsed {
			t.Fatalf("non-deterministic elapsed: %v vs %v", a.Elapsed, b.Elapsed)
		}
		if !a.Result.Equal(b.Result) {
			t.Fatal("non-deterministic result")
		}
	})
	// A switch outage while six tasks stream into host 0: at the reboot the
	// receiver's daemon re-allocates regions for several unfinished tasks,
	// and each sender channel replays the history of several, so the order
	// of both recoveries reaches the event sequence.
	for _, channels := range []int{4, 1} {
		t.Run(fmt.Sprintf("recovery/channels=%d", channels), func(t *testing.T) {
			make_ := func() (sim.Stats, []sim.Time) {
				cfg := core.DefaultConfig()
				cfg.Failover, cfg.ShadowCopy, cfg.DataChannels = true, false, channels
				cl, err := NewCluster(Options{Hosts: 4, Seed: 61, Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Sim.Close()
				jobs := make([]*Job, 6)
				for i := range jobs {
					jobs[i] = NewJob(core.TaskSpec{ID: core.TaskID(i + 1), Receiver: 0, Op: core.OpSum, Rows: 2048})
					for h := core.HostID(1); h <= 3; h++ {
						jobs[i].Send(h, kvs(genStream(int64(10*i)+int64(h), 4000, 300)))
					}
				}
				cl.Sim.After(300*time.Microsecond, func() {
					if err := cl.CrashSwitch(TheSwitch); err != nil {
						t.Error(err)
					}
				})
				cl.Sim.After(500*time.Microsecond, func() {
					if err := cl.RebootSwitch(TheSwitch); err != nil {
						t.Error(err)
					}
				})
				results, err := cl.Run(jobs...)
				if err != nil {
					t.Fatal(err)
				}
				elapsed := make([]sim.Time, len(results))
				unfinished := 0
				for i, res := range results {
					elapsed[i] = res.Elapsed
					if res.Elapsed > sim.Time(500*time.Microsecond) {
						unfinished++
					}
				}
				if unfinished < 2 || cl.Daemon(0).FailoverStats().EpochChanges == 0 {
					t.Fatalf("%d tasks unfinished at the reboot, host 0 saw %d: the outage missed the tasks",
						unfinished, cl.Daemon(0).FailoverStats().EpochChanges)
				}
				return cl.Sim.Stats(), elapsed
			}
			// A map-order leak changes the run only when the two iteration
			// orders differ, so compare several runs against the first.
			statsA, elapsedA := make_()
			for range 4 {
				statsB, elapsedB := make_()
				if statsA != statsB {
					t.Fatalf("non-deterministic event kernel: %+v vs %+v", statsA, statsB)
				}
				if !slices.Equal(elapsedA, elapsedB) {
					t.Fatalf("non-deterministic task times: %v vs %v", elapsedA, elapsedB)
				}
			}
		})
	}
}

func TestLargeValuesBypassSwitch(t *testing.T) {
	// Values outside the 32-bit vPart must flow via the long-key path and
	// still aggregate exactly.
	kvs := []core.KV{
		{Key: "big", Val: 1 << 40},
		{Key: "big", Val: 1 << 40},
		{Key: "small", Val: 3},
	}
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
	data := map[core.HostID][]core.KV{1: kvs}
	run(t, Options{Hosts: 2, Seed: 14}, spec, data)
}

func TestEmptyStream(t *testing.T) {
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
	data := map[core.HostID][]core.KV{1: nil}
	res := run(t, Options{Hosts: 2, Seed: 15}, spec, data)
	if len(res.Result) != 0 {
		t.Fatalf("empty stream produced %v", res.Result)
	}
}

func TestSwitchAbsorbsMostTraffic(t *testing.T) {
	// With ample switch memory and few distinct keys, the switch should
	// absorb nearly all tuples (the Table 1 regime).
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}}
	data := map[core.HostID][]core.KV{1: genStream(70, 20000, 64)}
	res := run(t, Options{Hosts: 2, Seed: 16}, spec, data)
	// A third of keys are long (bypass); of switch-eligible tuples, nearly
	// all must aggregate.
	if ratio := res.Switch.AggregatedTupleRatio(); ratio < 0.95 {
		t.Fatalf("switch aggregated only %.1f%% of eligible tuples", 100*ratio)
	}
}

func TestTaskChurnLeavesNoLeaks(t *testing.T) {
	// A long-lived service runs many tasks with varying shapes, operators,
	// and faults over the same cluster; afterwards every switch resource
	// must be back in the free pool and the channels still functional.
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.01
	cl, err := NewCluster(Options{Hosts: 4, Seed: 77, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	freeBefore := cl.Switch.FreeRows()
	rng := rand.New(rand.NewSource(77))
	ops := []core.Op{core.OpSum, core.OpMax, core.OpMin, core.OpCount}
	for i := 1; i <= 20; i++ {
		senders := []core.HostID{1, 2, 3}[:1+rng.Intn(3)]
		spec := core.TaskSpec{
			ID:       core.TaskID(i),
			Receiver: 0,
			Senders:  senders,
			Op:       ops[rng.Intn(len(ops))],
			Rows:     []int{0, 2, 128, -1}[rng.Intn(4)],
		}
		data := make(map[core.HostID][]core.KV)
		for _, s := range senders {
			data[s] = genStream(int64(1000*i)+int64(s), 1000+rng.Intn(2000), 100+rng.Intn(400))
		}
		runJob(t, &cl.Deployment, jobOf(spec, data))
	}
	if got := cl.Switch.FreeRows(); got != freeBefore {
		t.Fatalf("aggregator rows leaked: %d free, started with %d", got, freeBefore)
	}
}
