package ask

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// runPoisoned is run with the rack's free lists (netsim.PoolOf) poisoned or
// not. Poisoning belongs to one run's lists, so the tests that use it run in
// parallel with everything else.
func runPoisoned(t *testing.T, poison bool, opts Options, spec core.TaskSpec, perSender map[core.HostID][]core.KV) *TaskResult {
	t.Helper()
	cl, err := NewCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	netsim.PoolOf(cl.Sim).Poison = poison
	return runJob(t, &cl.Deployment, jobOf(spec, perSender))
}

// TestPoolPoisonSoak runs full aggregations with use-after-release poisoning
// enabled on the packet free list. Any spot in switchd/hostd/netsim that
// releases a packet while another reference is still live would read the
// sentinel values and corrupt the result (or trip a decode error), so an
// exact result here is an end-to-end proof of the ownership discipline
// described in wire/pool.go.
//
// The fault mix deliberately exercises every release path: loss and
// blackholed duplicates (release at the link), reordering (delivery from the
// kernel's timer path), duplication (multi-copy delivery where clone elision
// must NOT kick in), and enough traffic to force swaps, fetches, and
// long-key spills.
func TestPoolPoisonSoak(t *testing.T) {
	t.Parallel()
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.03
	link.Fault.DupProb = 0.03
	link.Fault.ReorderProb = 0.05
	link.Fault.ReorderDelay = 30 * time.Microsecond

	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2, 3}}
	data := map[core.HostID][]core.KV{
		1: genStream(101, 6000, 300),
		2: genStream(102, 6000, 300),
		3: genStream(103, 6000, 300),
	}
	res := runPoisoned(t, true, Options{Hosts: 4, Seed: 11, Link: link}, spec, data)
	if res.Switch.TuplesAggregated == 0 {
		t.Fatal("switch aggregated nothing under poison soak")
	}
}

// TestPoolPoisonDeterminism proves pooling cannot perturb results: the same
// seed must produce an identical aggregate and identical virtual elapsed
// time with poisoning on and off (poison only rewrites dead storage).
func TestPoolPoisonDeterminism(t *testing.T) {
	t.Parallel()
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}
	data := map[core.HostID][]core.KV{
		1: genStream(104, 4000, 200),
		2: genStream(105, 4000, 200),
	}
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	link.Fault.DupProb = 0.02

	runOnce := func(poison bool) *TaskResult {
		return runPoisoned(t, poison, Options{Hosts: 3, Seed: 21, Link: link}, spec, data)
	}
	a := runOnce(false)
	b := runOnce(true)
	if !a.Result.Equal(b.Result) {
		t.Fatalf("poison mode changed the aggregate: %s", a.Result.Diff(b.Result, 8))
	}
	if a.Elapsed != b.Elapsed {
		t.Fatalf("poison mode changed virtual time: %v vs %v", a.Elapsed, b.Elapsed)
	}
}

// TestPoolPoisonFailoverReplay is the poison row for the one packet the
// sender does not release when its flight is acknowledged: with Failover on a
// data packet stays in its task's history, and after a switch reboot it is
// replayed through a packet that aliases its slot array. The switch dies and
// reboots mid-stream here, so acknowledged packets are replayed long after
// their ACK; were they (or the arrays the replays alias, when the replays are
// released in their turn) recycled, the replays would carry sentinels or
// another packet's tuples and the aggregate would be wrong.
func TestPoolPoisonFailoverReplay(t *testing.T) {
	t.Parallel()
	cfg := core.DefaultConfig()
	cfg.Failover, cfg.SwapThreshold = true, 0
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.01
	link.Fault.DupProb = 0.01
	cl, err := NewCluster(Options{Hosts: 4, Seed: 31, Config: cfg, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Sim.Close()
	netsim.PoolOf(cl.Sim).Poison = true
	// 20 000 tuples per sender, 50 ns apart: the streams span 1 ms and the
	// outage over [400 µs, 600 µs) is mid-stream.
	job := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for h := core.HostID(1); h <= 3; h++ {
		tkvs := make([]core.TimedKV, 20000)
		for i, kv := range genStream(300+int64(h), len(tkvs), 300) {
			tkvs[i] = core.TimedKV{KV: kv, At: time.Duration(i) * 50 * time.Nanosecond}
		}
		job.SendTimed(h, tkvs)
	}
	cl.Sim.After(400*time.Microsecond, func() {
		if err := cl.CrashSwitch(TheSwitch); err != nil {
			t.Error(err)
		}
	})
	cl.Sim.After(600*time.Microsecond, func() {
		if err := cl.RebootSwitch(TheSwitch); err != nil {
			t.Error(err)
		}
	})
	if _, err := cl.Run(job); err != nil {
		t.Fatal(err)
	}
	var replays int64
	for _, h := range cl.Hosts() {
		replays += cl.Daemon(h).FailoverStats().ReplaysSent
	}
	if replays == 0 {
		t.Fatal("no replays: the outage missed the stream")
	}
}

// TestPoolPoisonIsPerRun runs two deployments at once, on two goroutines, one
// of them with its free lists poisoned. Each run owns its lists, so neither
// sees the other's: under -race a list shared between the runs is a reported
// race, and a poison switch that leaked across runs, or a packet recycled
// into the other run, would break one of the aggregates. Both are exact, and
// identical, since poisoning only rewrites dead storage.
func TestPoolPoisonIsPerRun(t *testing.T) {
	t.Parallel()
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}
	data := map[core.HostID][]core.KV{
		1: genStream(106, 3000, 200),
		2: genStream(107, 3000, 200),
	}
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	link.Fault.DupProb = 0.02
	var results [2]*TaskResult
	var errs [2]error
	var wg sync.WaitGroup
	for i, poison := range []bool{false, true} {
		cl, err := NewCluster(Options{Hosts: 3, Seed: 22, Link: link})
		if err != nil {
			t.Fatal(err)
		}
		netsim.PoolOf(cl.Sim).Poison = poison
		job := jobOf(spec, data)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Sim.Close()
			res, err := cl.Run(job)
			if err == nil {
				results[i] = res[0]
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d (poisoned %v): %v", i, i == 1, err)
		}
	}
	if !results[0].Result.Equal(results[1].Result) || results[0].Elapsed != results[1].Elapsed {
		t.Fatalf("the poisoned run differs from the clean one: %s; elapsed %v vs %v",
			results[0].Result.Diff(results[1].Result, 8), results[0].Elapsed, results[1].Elapsed)
	}
}
