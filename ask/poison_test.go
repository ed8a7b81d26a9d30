package ask

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

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
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

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
	res := run(t, Options{Hosts: 4, Seed: 11, Link: link}, spec, data)
	if res.Switch.TuplesAggregated == 0 {
		t.Fatal("switch aggregated nothing under poison soak")
	}
}

// TestPoolPoisonDeterminism proves pooling cannot perturb results: the same
// seed must produce an identical aggregate and identical virtual elapsed
// time with poisoning on and off (poison only rewrites dead storage).
func TestPoolPoisonDeterminism(t *testing.T) {
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}
	data := map[core.HostID][]core.KV{
		1: genStream(104, 4000, 200),
		2: genStream(105, 4000, 200),
	}
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	link.Fault.DupProb = 0.02

	runOnce := func(poison bool) *TaskResult {
		wire.SetPoolPoison(poison)
		defer wire.SetPoolPoison(false)
		return run(t, Options{Hosts: 3, Seed: 21, Link: link}, spec, data)
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
	wire.SetPoolPoison(true)
	defer wire.SetPoolPoison(false)

	cfg := core.DefaultConfig()
	cfg.Failover, cfg.ShadowCopy = true, false
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.01
	link.Fault.DupProb = 0.01
	cl, err := NewCluster(Options{Hosts: 4, Seed: 31, Config: cfg, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Sim.Close()
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
