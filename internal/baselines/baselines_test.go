package baselines

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// frameLog records every frame a host receives.
type frameLog struct{ frames []netsim.Frame }

func (l *frameLog) HandleFrame(f *netsim.Frame) { l.frames = append(l.frames, *f) }

func TestShipResultFrames(t *testing.T) {
	for _, tc := range []struct {
		bytes, frames int
	}{
		{0, 1},
		{1, 1},
		{MTUPayload, 1},
		{MTUPayload + 1, 2},
		{2 * MTUPayload, 2},
	} {
		for _, rdma := range []bool{false, true} {
			s, n := NewRack(1, netsim.DefaultLinkConfig())
			rx := &frameLog{}
			n.AttachHost(0, rx)
			n.AttachHost(1, senderHost{})
			cpu := cpumodel.NewHost(s, cpumodel.DefaultCores)
			var thread *cpumodel.Thread
			if !rdma {
				thread = cpu.NewThread()
			}
			s.Spawn("ship", func(p *sim.Proc) { ShipResult(p, n, thread, 1, 0, tc.bytes, "final") })
			s.Run(0)

			if len(rx.frames) != tc.frames {
				t.Fatalf("bytes=%d rdma=%v: %d frames, want %d", tc.bytes, rdma, len(rx.frames), tc.frames)
			}
			good := 0
			for i, f := range rx.frames {
				good += f.GoodBytes
				if f.WireBytes != f.GoodBytes+wire.PerPacketOverhead {
					t.Errorf("bytes=%d frame %d: WireBytes %d, GoodBytes %d", tc.bytes, i, f.WireBytes, f.GoodBytes)
				}
				if last := i == len(rx.frames)-1; (f.Pkt.Ctrl == "final") != last {
					t.Errorf("bytes=%d frame %d of %d carries %v", tc.bytes, i, len(rx.frames), f.Pkt.Ctrl)
				}
			}
			if good != tc.bytes {
				t.Errorf("bytes=%d: frames carry %d good bytes", tc.bytes, good)
			}
			want := time.Duration(tc.frames) * cpumodel.PacketIOCost
			if rdma {
				want = 0
			}
			if got := cpu.BusyTime(); got != want {
				t.Errorf("bytes=%d rdma=%v: sender busy %v, want %v", tc.bytes, rdma, got, want)
			}
		}
	}
}

func TestMergerDoneAtLastMerge(t *testing.T) {
	s, _ := NewRack(1, netsim.DefaultLinkConfig())
	cpu := cpumodel.NewHost(s, cpumodel.DefaultCores)
	m := NewMerger(s, cpu, core.OpSum, 2, 1)
	result := func(n int) core.Result {
		r := make(core.Result)
		for i := 0; i < n; i++ {
			r[string(rune('a'+i))] = 1
		}
		return r
	}
	deliver := func(at time.Duration, ctrl any) {
		s.After(at, func() { m.HandleFrame(&netsim.Frame{Pkt: &wire.Packet{Type: wire.TypeCtrl, Ctrl: ctrl}}) })
	}
	cost := cpumodel.HostAggregateCost
	// Reducer 0's first partial arrives first but merges longest, so its
	// second merge is not its last.
	deliver(0, Partial{Reducer: 0, Data: result(20)})
	deliver(cost, Partial{Reducer: 0, Data: result(2)})
	deliver(0, Partial{Reducer: 1, Data: result(3)})
	deliver(0, nil) // a non-final frame: nothing to merge
	s.Run(0)

	if want := sim.Time(20 * cost); m.DoneAt[0] != want {
		t.Errorf("reducer 0 done at %v, want %v", m.DoneAt[0], want)
	}
	if want := sim.Time(3 * cost); m.DoneAt[1] != want {
		t.Errorf("reducer 1 done at %v, want %v", m.DoneAt[1], want)
	}
	want0 := result(20)
	want0.Merge(result(2), core.OpSum)
	if !m.Results[0].Equal(want0) || !m.Results[1].Equal(result(3)) {
		t.Errorf("merged results %v, %v", m.Results[0], m.Results[1])
	}
	if got, want := cpu.BusyTime(), 25*cost; got != want {
		t.Errorf("receiver busy %v, want %v", got, want)
	}
}

func TestPreAggrExact(t *testing.T) {
	spec := workload.Uniform(500, 50000, 1)
	rep := RunPreAggr(PreAggrConfig{Op: core.OpSum, Threads: 8, Seed: 1}, spec.Stream())
	want := spec.Reference(core.OpSum)
	if !rep.Result.Equal(want) {
		t.Fatalf("PreAggr incorrect: %s", rep.Result.Diff(want, 5))
	}
	if rep.JCT <= 0 || rep.SenderBusy <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.IntermediateBytes <= 0 {
		t.Fatal("no intermediate volume")
	}
}

func TestPreAggrThreadScaling(t *testing.T) {
	// More threads → shorter JCT (near-linear below the core count),
	// matching the Fig. 7 PreAggr curve.
	spec := workload.Uniform(1000, 200000, 2)
	j8 := RunPreAggr(PreAggrConfig{Op: core.OpSum, Threads: 8, Seed: 1}, spec.Stream()).JCT
	j32 := RunPreAggr(PreAggrConfig{Op: core.OpSum, Threads: 32, Seed: 1}, spec.Stream()).JCT
	ratio := float64(j8) / float64(j32)
	if ratio < 2.5 || ratio > 4.5 {
		t.Fatalf("8→32 thread speedup %.2f×, want near 4×", ratio)
	}
}

func TestPreAggrReducesTraffic(t *testing.T) {
	// 200k tuples over 500 keys: intermediate must be ≪ raw 8 B/tuple.
	spec := workload.Uniform(500, 200000, 3)
	rep := RunPreAggr(PreAggrConfig{Op: core.OpSum, Threads: 4, Seed: 1}, spec.Stream())
	raw := int64(200000 * 8)
	if rep.IntermediateBytes > raw/20 {
		t.Fatalf("intermediate %d bytes vs raw %d: pre-aggregation ineffective", rep.IntermediateBytes, raw)
	}
}

func TestNoAggrSaturatesLink(t *testing.T) {
	rep := RunNoAggr(NoAggrConfig{
		Senders: 1, ChannelsPerSender: 4, BytesPerSender: 50 << 20, Seed: 1,
	})
	// 1446/1524 ≈ 94.9% goodput efficiency at 100 Gbps line rate.
	if rep.GoodputGbps < 85 || rep.GoodputGbps > 96 {
		t.Fatalf("NoAggr goodput %.2f Gbps, want ~90-95", rep.GoodputGbps)
	}
	if rep.WireGbps < 95 || rep.WireGbps > 100.5 {
		t.Fatalf("NoAggr wire rate %.2f Gbps, want ~100", rep.WireGbps)
	}
	if rep.RxGoodBytes != 50<<20 && rep.RxGoodBytes < 50<<20 {
		t.Fatalf("received %d good bytes, want >= %d", rep.RxGoodBytes, 50<<20)
	}
}

func TestNoAggrReceiverBottleneck(t *testing.T) {
	// Fig. 13(b): per-sender throughput is inversely proportional to the
	// sender count because the receiver's link saturates.
	one := RunNoAggr(NoAggrConfig{Senders: 1, ChannelsPerSender: 4, BytesPerSender: 20 << 20, Seed: 1})
	four := RunNoAggr(NoAggrConfig{Senders: 4, ChannelsPerSender: 4, BytesPerSender: 20 << 20, Seed: 1})
	ratio := one.PerSenderGoodbps / four.PerSenderGoodbps
	if ratio < 3.3 || ratio > 4.7 {
		t.Fatalf("1→4 senders per-sender ratio %.2f, want ~4", ratio)
	}
}

func TestNoAggrCPUBound(t *testing.T) {
	// With a single channel the sender thread's PPS limits throughput
	// below line rate at tiny MTU... emulate by slowing the link instead:
	// verify CPU busy accounting is sane.
	rep := RunNoAggr(NoAggrConfig{Senders: 1, ChannelsPerSender: 1, BytesPerSender: 10 << 20, Seed: 1})
	if rep.SenderBusy <= 0 || rep.SenderBusy > rep.Elapsed*2 {
		t.Fatalf("SenderBusy = %v over %v", rep.SenderBusy, rep.Elapsed)
	}
}

func TestNoAggrUnderLossStillCompletes(t *testing.T) {
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.02
	rep := RunNoAggr(NoAggrConfig{
		Senders: 1, ChannelsPerSender: 2, BytesPerSender: 4 << 20, Link: link, Seed: 2,
	})
	if rep.RxGoodBytes < 4<<20 {
		t.Fatalf("transfer incomplete under loss: %d bytes", rep.RxGoodBytes)
	}
	if rep.Elapsed <= 0 || rep.Elapsed > 10*time.Second {
		t.Fatalf("elapsed %v", rep.Elapsed)
	}
}

func TestShardPreservesTuples(t *testing.T) {
	spec := workload.Uniform(50, 1000, 3)
	var kvs []core.KV
	for s := spec.Stream(); ; {
		kv, ok := s()
		if !ok {
			break
		}
		kvs = append(kvs, kv)
	}
	shards := shardStream(core.SliceStream(kvs), 7)
	var all []core.KV
	for _, s := range shards {
		all = append(all, s...)
	}
	if len(all) != len(kvs) {
		t.Fatalf("sharding lost tuples: %d vs %d", len(all), len(kvs))
	}
	if !core.Reference(core.OpSum, all).Equal(core.Reference(core.OpSum, kvs)) {
		t.Fatal("shard content diverges")
	}
	// Balanced within 1.
	for _, s := range shards {
		if len(s) < len(kvs)/7 || len(s) > len(kvs)/7+1 {
			t.Fatalf("unbalanced shard: %d", len(s))
		}
	}
	if got := shardStream(core.SliceStream(nil), 3); len(got) != 3 || len(got[0])+len(got[1])+len(got[2]) != 0 {
		t.Fatalf("sharding an empty stream gave %v", got)
	}
}
