package hostd_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestQueuedPacketHoldsNoFrame delivers a backlog of data packets, and the
// FIN that ends them, to a receiver whose channel thread has not yet run:
// each arrives as a link delivers it, a free-list frame owning a pooled
// packet. Under pool poisoning every frame reads poisoned the moment
// HandleFrame returns — the receive queue gave the frame back at arrival —
// while what it queued stays intact: once the simulation runs, the task's
// result is exactly the reference fold of what was sent.
func TestQueuedPacketHoldsNoFrame(t *testing.T) {
	cfg := core.DefaultConfig()
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
	r.s.Run(0)
	if h == nil {
		t.Fatal("task not submitted")
	}

	flow := core.FlowKey{Host: 1, Channel: 0}
	var sent []core.KV
	deliver := func(pkt *wire.Packet) {
		f := pool.NewFrame()
		f.Src, f.Dst, f.WireBytes = 1, 0, pkt.WireBytes(cfg.KPartBytes)
		f.Pkt, f.Owned = pool.Clone(pkt), true
		r.daemons[0].HandleFrame(f)
		if f.Src != netsim.PoisonAddr || f.WireBytes != netsim.PoisonWireBytes || f.Pkt != nil {
			t.Fatalf("seq %d: the receive queue still holds the frame it arrived in", pkt.Seq)
		}
	}
	const backlog = 64
	for seq := uint32(0); seq < backlog; seq++ {
		pkt := &wire.Packet{Type: wire.TypeData, Task: 1, Flow: flow, Seq: seq, Slots: make([]wire.Slot, cfg.NumAAs)}
		for i := 0; i < 40; i++ {
			key := fmt.Sprint("k", (int(seq)*7+i)%300)
			pl := layout.Place(key)
			if pl.Class != keyspace.Short || pkt.Bitmap.Test(pl.FirstSlot) {
				continue
			}
			val := int64(seq) + int64(i)
			pkt.Slots[pl.FirstSlot] = wire.Slot{KPart: pl.KParts[0], Val: val}
			pkt.Bitmap = pkt.Bitmap.Set(pl.FirstSlot)
			sent = append(sent, core.KV{Key: key, Val: val})
		}
		deliver(pkt)
	}
	deliver(&wire.Packet{Type: wire.TypeFin, Task: 1, Flow: flow, Seq: backlog, OrigSeq: 1})

	var got core.Result
	r.s.Spawn("waiter", func(p *sim.Proc) { got = h.Wait(p) })
	r.s.Run(0)
	if got == nil {
		t.Fatal("task did not complete")
	}
	if want := core.Reference(core.OpSum, sent); !got.Equal(want) {
		t.Fatalf("queued packets did not survive their frames: %s", got.Diff(want, 8))
	}
	if st := h.Stats(); st.ResidueTuples != int64(len(sent)) {
		t.Fatalf("merged %d residue tuples, sent %d", st.ResidueTuples, len(sent))
	}
}
