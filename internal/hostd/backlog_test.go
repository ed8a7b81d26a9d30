//go:build !race

package hostd_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestReceiveBacklogHoldsNoPacket delivers a backlog of thousands of packets
// to a receiver whose channel thread has not yet run, each as a link delivers
// it: a free-list frame owning a pooled packet. The backlog mixes short and
// medium groups, a long-key packet, a duplicate and the FIN; with failover on
// it adds replays of packets the switch partly absorbed, whose claimed bits
// (claimBits) are a strict subset of their bitmap. Under pool poisoning each
// packet reads poisoned the moment HandleFrame returns — the receive queue
// copied out what the channel thread reads and gave the packet back — and
// queueing the whole backlog allocates at most one object per 32 packets. A
// second long-key packet arrives instead in a frame built by hand, which does
// not own it, twice: the queue leaves that frame and packet untouched. Once
// the simulation runs, the task's result is exactly the reference fold of
// what the backlog carries.
//
// It switches the collector off, so it must not run in parallel with other
// tests.
func TestReceiveBacklogHoldsNoPacket(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(fmt.Sprintf("failover=%v", failover), func(t *testing.T) {
			testReceiveBacklog(t, failover)
		})
	}
}

func testReceiveBacklog(t *testing.T, failover bool) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := core.DefaultConfig()
	if failover {
		cfg.Failover, cfg.SwapThreshold = true, 0
	}
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	pool := netsim.PoolOf(r.s)
	pool.Poison = true
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
	// With failover on, the prober keeps an open task's run going: run in
	// microsecond steps until Submit has returned.
	for h == nil && r.s.Now() < sim.Time(time.Millisecond) {
		r.s.Run(r.s.Now().Add(time.Microsecond))
	}
	if h == nil {
		t.Fatal("task not submitted")
	}

	// The backlog, built before anything is measured. want collects every
	// tuple the receiver must merge exactly once.
	flow := core.FlowKey{Host: 1, Channel: 0}
	var backlog []*wire.Packet
	var want []core.KV
	replayed := int64(0)
	var unowned *wire.Packet // delivered in a frame that does not own it
	seq := uint32(0)
	next := func(typ wire.Type) *wire.Packet {
		pkt := &wire.Packet{Type: typ, Task: 1, Flow: flow, Seq: seq}
		seq++
		backlog = append(backlog, pkt)
		return pkt
	}
	const packets = 4096
	for len(backlog) < packets {
		pkt := next(wire.TypeData)
		pkt.Slots = make([]wire.Slot, cfg.NumAAs)
		var tuples []core.KV
		for i := 0; i < 24; i++ {
			key := fmt.Sprint("k", (int(pkt.Seq)*7+i)%300) // short
			if i%3 == 0 {
				key = fmt.Sprintf("mkey%03d", (int(pkt.Seq)+i)%50) // medium: two segments
			}
			pl := layout.Place(key)
			if pl.Class == keyspace.Long || pkt.Bitmap.Test(pl.FirstSlot) {
				continue
			}
			val := int64(pkt.Seq)%97 + int64(i)
			for j, kp := range pl.KParts {
				pkt.Slots[pl.FirstSlot+j] = wire.Slot{KPart: kp}
				pkt.Bitmap = pkt.Bitmap.Set(pl.FirstSlot + j)
			}
			pkt.Slots[pl.FirstSlot+pl.Segs-1].Val = val
			tuples = append(tuples, core.KV{Key: key, Val: val})
		}
		want = append(want, tuples...)
		switch {
		case pkt.Seq == 100:
			// The same packet again: deduplicated at processing time.
			*next(wire.TypeData) = *pkt
			seq--
		case failover && pkt.Seq%64 == 3:
			// A replay of the packet as sent, after the switch absorbed its
			// first tuple: the receiver saw the rest, and claims only the
			// absorbed tuple's bits from the replay — a strict subset of its
			// bitmap. The replay must still carry every group to the merge.
			first := tuples[0]
			pl := layout.Place(first.Key)
			full := pkt.Bitmap
			for j := range pl.Segs {
				pkt.Bitmap &^= 1 << uint(pl.FirstSlot+j)
			}
			rp := next(wire.TypeReplay)
			rp.OrigSeq, rp.Bitmap, rp.Slots = pkt.Seq, full, pkt.Slots
			replayed++
			if claimed := full &^ pkt.Bitmap; claimed == 0 || claimed == full {
				t.Fatalf("replay of seq %d claims %b of %b, want a strict non-empty subset", pkt.Seq, claimed, full)
			}
		}
		if pkt.Seq == 200 || pkt.Seq == 300 {
			lp := next(wire.TypeLongKey)
			if pkt.Seq == 300 {
				unowned = lp
			}
			for i := range 5 {
				kv := wire.LongKV{Key: strings.Repeat("long-key/", 4) + fmt.Sprint(lp.Seq, "/", i), Val: int64(i + 1)}
				lp.Long = append(lp.Long, kv)
				want = append(want, core.KV{Key: kv.Key, Val: kv.Val})
			}
		}
	}
	next(wire.TypeFin).OrigSeq = 1

	// Warm the free lists for every packet and frame the backlog holds at
	// once: each delivery's transport ACK waits in a frame on the link until
	// the simulation runs.
	warm := make([]*netsim.Frame, 2*len(backlog)+64)
	for i := range warm {
		warm[i] = pool.NewFrame()
		warm[i].Pkt, warm[i].Owned = pool.NewData(cfg.NumAAs), true
	}
	for _, f := range warm {
		f.Release()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, src := range backlog {
		if src == unowned {
			// A frame built by hand that does not own its packet: the queue
			// leaves both with their builder, which sends them again — a
			// retransmission, merged once.
			f := &netsim.Frame{Src: 1, Dst: 0, Pkt: src, WireBytes: src.WireBytes(cfg.KPartBytes)}
			key := src.Long[0].Key
			for range 2 {
				r.daemons[0].HandleFrame(f)
				if f.Pkt != src || f.Src != 1 || src.Type != wire.TypeLongKey || src.Long[0].Key != key {
					t.Fatalf("the queue released a frame or packet it does not own: frame %+v, packet %v long %v", f, src.Type, src.Long)
				}
			}
			continue
		}
		f := pool.NewFrame()
		f.Src, f.Dst, f.WireBytes = 1, 0, src.WireBytes(cfg.KPartBytes)
		f.Pkt, f.Owned = pool.Clone(src), true
		pkt := f.Pkt
		r.daemons[0].HandleFrame(f)
		if pkt.Type != wire.PoisonType || pkt.Seq != wire.PoisonSeq || f.Pkt != nil {
			t.Fatalf("%v seq %d: the receive queue still holds the packet it arrived in", src.Type, src.Seq)
		}
	}
	runtime.ReadMemStats(&after)
	n, limit := after.Mallocs-before.Mallocs, uint64(len(backlog)/32)
	t.Logf("queueing %d packets allocated %d objects", len(backlog), n)
	if n > limit {
		t.Errorf("queueing %d packets allocated %d objects, want at most %d (one per 32 packets)", len(backlog), n, limit)
	}

	var got core.Result
	r.s.Spawn("waiter", func(p *sim.Proc) { got = h.Wait(p) })
	r.s.Run(0)
	if got == nil {
		t.Fatal("task did not complete")
	}
	if err := got.Verify(core.Reference(core.OpSum, want)); err != nil {
		t.Fatalf("the backlog did not survive its packets: %v", err)
	}
	if st := h.Stats(); st.ResidueTuples != int64(len(want)) || st.ReplayTuples != replayed {
		t.Fatalf("merged %d residue tuples, %d of them replayed; the backlog carries %d, %d replayed",
			st.ResidueTuples, st.ReplayTuples, len(want), replayed)
	}
}
