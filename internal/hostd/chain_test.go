package hostd_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/wire"
	"repro/internal/workload"
)

// drain collects a stream's tuples.
func drain(s core.Stream) []core.KV {
	var out []core.KV
	for kv, ok := s(); ok; kv, ok = s() {
		out = append(out, kv)
	}
	return out
}

// TestContendedCoresQueueChains: a receiver with 2 cores behind 6 data
// channels, with every tuple left to it (the tasks hold no switch region),
// keeps its six receive chains busy at once, so they wait for a core in the
// resource's FIFO and carry on when granted. Each task's result is exact, the
// cores' busy time is the sum of the charges — PacketIOCost per packet served
// plus HostAggregateCost per residue tuple — and the same run with a core
// per thread finishes earlier: the chains did queue. Two runs agree on every
// count.
func TestContendedCoresQueueChains(t *testing.T) {
	type outcome struct {
		end    sim.Time
		busy   time.Duration
		stats  hostd.Stats
		kernel sim.Stats
	}
	run := func(cores int) outcome {
		cfg := core.DefaultConfig()
		cfg.DataChannels = 6
		r := newRigCores(t, 4, netsim.DefaultLinkConfig(), cfg, func(sw *switchd.Switch) hostd.Controller { return ctrlAdapter{sw} }, cores, 0)
		defer r.s.Close()
		senders := []core.HostID{1, 2, 3}
		var end sim.Time
		for task := core.TaskID(1); task <= 6; task++ {
			var in []core.KV
			for _, h := range senders {
				w := workload.Uniform(512, 1500, int64(task)*10+int64(h))
				r.daemons[h].SubmitSend(task, w.Stream())
				in = append(in, drain(w.Stream())...)
			}
			r.s.Spawn(fmt.Sprint("driver", task), func(p *sim.Proc) {
				h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: task, Receiver: 0, Senders: senders, Op: core.OpSum, Rows: -1})
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := h.Wait(p), core.Reference(core.OpSum, in); !got.Equal(want) {
					t.Errorf("%d cores, task %d: %s", cores, task, got.Diff(want, 4))
				}
				end = max(end, p.Now())
			})
		}
		r.s.Run(0)
		return outcome{end, r.cpus[0].BusyTime(), r.daemons[0].Stats(), r.s.Stats()}
	}
	contended, spare := run(2), run(cpumodel.DefaultCores)
	st := contended.stats
	if st.ResidueTuples != 6*3*1500 {
		t.Fatalf("%d residue tuples merged, want every one of %d", st.ResidueTuples, 6*3*1500)
	}
	charges := time.Duration(st.PacketsReceived)*cpumodel.PacketIOCost + time.Duration(st.ResidueTuples)*cpumodel.HostAggregateCost
	if contended.busy != charges || spare.busy != charges {
		t.Fatalf("receiver cores busy %v (2 cores) and %v (spare), want the charges' sum %v", contended.busy, spare.busy, charges)
	}
	if contended.end <= spare.end {
		t.Fatalf("2 cores finished at %v, no later than spare cores at %v: no chain waited for a core", contended.end, spare.end)
	}
	if again := run(2); again != contended {
		t.Fatalf("two contended runs differ: %+v vs %+v", contended, again)
	}
}

// TestReplayServedAfterCommitStaysUnmerged: a failover replay that reaches the
// receiver while its task's switch state is still uncommitted, but is served
// only after the commit — it queued behind a data packet being charged —
// merges nothing. The commit and the ledger are read when the packet's
// service starts, not at its arrival.
func TestReplayServedAfterCommitStaysUnmerged(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Failover, cfg.SwapThreshold = true, 0
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	defer r.s.Close()
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var h *hostd.RecvHandle
	r.s.Spawn("driver", func(p *sim.Proc) {
		var err error
		if h, err = r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum}); err != nil {
			t.Error(err)
		}
	})
	r.s.Run(sim.Time(time.Millisecond))
	if h == nil {
		t.Fatal("task not submitted")
	}
	flow := core.FlowKey{Host: 1, Channel: 0}
	packet := func(typ wire.Type, seq, orig uint32, keys ...string) *wire.Packet {
		pkt := &wire.Packet{Type: typ, Task: 1, Flow: flow, Seq: seq, OrigSeq: orig, Slots: make([]wire.Slot, cfg.NumAAs)}
		for _, k := range keys {
			pl := layout.Place(k)
			pkt.Slots[pl.FirstSlot] = wire.Slot{KPart: pl.KParts[0], Val: 1}
			pkt.Bitmap = pkt.Bitmap.Set(pl.FirstSlot)
		}
		return pkt
	}
	deliver := func(pkt *wire.Packet) {
		f := netsim.PoolOf(r.s).NewFrame()
		f.Src, f.Dst, f.WireBytes = 1, 0, pkt.WireBytes(cfg.KPartBytes)
		f.Pkt, f.Owned = pkt, true
		r.daemons[0].HandleFrame(f)
	}
	at := r.s.Now().Add(time.Microsecond)
	r.s.At(at, func() {
		deliver(packet(wire.TypeData, 0, 0, "a", "b", "c"))
		deliver(packet(wire.TypeReplay, 1, 7, "x", "y")) // queued behind the data packet
	})
	// The data packet's charge runs past this instant; the replay has not
	// started yet.
	r.s.At(at.Add(cpumodel.PacketIOCost), func() { r.daemons[0].CommitSwitchState(1) })
	r.s.Run(at.Add(time.Millisecond))
	st := h.Stats()
	if r.daemons[0].Stats().PacketsReceived != 2 {
		t.Fatalf("%d packets served, want the data packet and the replay", r.daemons[0].Stats().PacketsReceived)
	}
	if st.ReplayTuples != 0 || st.ResidueTuples != 3 {
		t.Fatalf("merged %d replay tuples and %d residue tuples, want 0 and the data packet's 3", st.ReplayTuples, st.ResidueTuples)
	}
}

// TestRecoveryMidStreamHandsBack: a switch reboot while a paced stream is
// half sent makes the send chain hand control back to txLoop between two
// packets — through the process's Resumer, with the recovery begun before
// the hand-back's event ends — and txLoop replays the retained history,
// re-registers and restarts the chain. The stream then finishes, and the
// result is exact: no tuple lost, none counted twice.
func TestRecoveryMidStreamHandsBack(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Failover, cfg.SwapThreshold = true, 0
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	defer r.s.Close()
	const tuples = 20000
	w := workload.Uniform(2048, tuples, 3)
	in := drain(w.Stream())
	i := 0
	stream := func() (core.TimedKV, bool) {
		if i >= len(in) {
			return core.TimedKV{}, false
		}
		i++
		return core.TimedKV{KV: in[i-1], At: time.Duration(i) * 100 * time.Nanosecond}, true
	}
	sender := r.daemons[1]
	handBacks := 0
	var result core.Result
	r.s.Spawn("driver", func(p *sim.Proc) {
		sender.WrapHandBacks(func(ch int, resume func()) func() {
			return func() {
				if !sender.RecoveryPending(ch) {
					resume()
					return
				}
				handBacks++
				resume()
				if sender.RecoveryPending(ch) {
					t.Errorf("channel %d: the recovery had not begun when the hand-back's event ended", ch)
				}
			}
		})
		h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
		if err != nil {
			t.Error(err)
			return
		}
		sender.SubmitSendTimed(1, stream)
		result = h.Wait(p)
	})
	r.s.At(sim.Time(600*time.Microsecond), r.sw.Crash)
	r.s.At(sim.Time(700*time.Microsecond), r.sw.Reboot)
	r.s.Run(sim.Time(time.Second))
	if result == nil {
		t.Fatal("task did not complete")
	}
	if want := core.Reference(core.OpSum, in); !result.Equal(want) {
		t.Fatalf("result after a mid-stream recovery: %s", result.Diff(want, 8))
	}
	fs := sender.FailoverStats()
	if fs.EpochChanges == 0 || fs.ReplaysSent == 0 || fs.Reattaches == 0 || handBacks == 0 {
		t.Fatalf("sender saw %d reboots, replayed %d packets, finished %d recoveries, %d of them handed back mid-stream; want all nonzero",
			fs.EpochChanges, fs.ReplaysSent, fs.Reattaches, handBacks)
	}
}
