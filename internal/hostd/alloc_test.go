//go:build !race

package hostd_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestOneTuplePacketTxAllocs pins the daemon's share of the per-packet path
// at its worst case, one tuple per packet: arrivals paced further apart than
// a packet's lifetime, so every tuple is pulled, packetized into a free-list
// packet, window-sent in a free-list frame, absorbed and ACKed by the switch,
// and released on that ACK, before the next one is due. The count covers the
// whole rack (sender, links, switch, receiver) and the task's fixed set-up
// cost spread over its tuples, and must stay at or under one heap object per
// tuple; the per-packet path itself contributes none.
func TestOneTuplePacketTxAllocs(t *testing.T) {
	const tuples = 4000
	r := newRig(t, 2, netsim.DefaultLinkConfig())
	var keys [8]string
	for k := range keys {
		keys[k] = fmt.Sprint("k", k)
	}
	run := func(task core.TaskID) float64 {
		i := 0
		stream := func() (core.TimedKV, bool) {
			if i >= tuples {
				return core.TimedKV{}, false
			}
			i++
			return core.TimedKV{KV: core.KV{Key: keys[i%8], Val: 1}, At: time.Duration(i) * 5 * time.Microsecond}, true
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.daemons[1].SubmitSendTimed(task, stream)
		var result core.Result
		r.s.Spawn("driver", func(p *sim.Proc) {
			h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: task, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
			if err != nil {
				t.Error(err)
				return
			}
			result = h.Wait(p)
		})
		r.s.Run(0)
		runtime.ReadMemStats(&after)
		if len(result) != 8 || result["k1"] != tuples/8 {
			t.Fatalf("task %d: wrong result %v", task, result)
		}
		if sent := r.daemons[1].Stats().PacketsSent; sent < int64(task)*tuples {
			t.Fatalf("task %d: %d packets for %d tuples: not one tuple per packet", task, sent, int64(task)*tuples)
		}
		return float64(after.Mallocs-before.Mallocs) / tuples
	}
	run(1) // fills the free lists, grows the rings and queues
	if perTuple := run(2); perTuple > 1 {
		t.Fatalf("one-tuple packets cost %.3f heap objects per tuple across the rack, want ≤ 1", perTuple)
	} else {
		t.Logf("%.3f heap objects per tuple", perTuple)
	}

	// The replies HandleFrame handles inline and lets go of on the spot (the
	// ACKs among them are counted above), each in the form nobody is waiting
	// for — a late duplicate — so that the daemon's Release of the frame is all
	// that happens; and, last, any frame at a stalled daemon. Fed as the link
	// delivers them: a free-list frame owning a pooled packet.
	pool := netsim.PoolOf(r.s)
	inline := func(name string, pkt *wire.Packet) {
		deliver := func() {
			f := pool.NewFrame()
			f.Src, f.Dst, f.Pkt, f.Owned = 1, 0, pool.Clone(pkt), true
			r.daemons[0].HandleFrame(f)
		}
		for i := 0; i < 100; i++ {
			deliver()
		}
		if a := testing.AllocsPerRun(200, deliver); a != 0 {
			t.Errorf("%s frame handled inline allocates %v objects, want 0", name, a)
		}
	}
	inline("fetch reply", &wire.Packet{Type: wire.TypeFetchReply, Seq: 1 << 30})
	inline("probe reply", &wire.Packet{Type: wire.TypeProbeReply})
	r.daemons[0].Stall()
	inline("stalled", &wire.Packet{Type: wire.TypeAck, AckFor: wire.TypeData})
}

// TestSwapRoundAllocatesNothing pins the shadow copy's swap → fetch → clear
// round (§3.4) at zero on a warm daemon. Each run hands the switch a data
// packet whose three tuples it absorbs into the active copy, and the receiver
// a residue packet, which at SwapThreshold 1 starts a round on the task's swap
// process: the swap request and its ACK, a snapshot fetch of the copy just
// retired, answered in pooled reply chunks and merged into the result, then
// the clear and its ACK. Both packets arrive as a link delivers them, a
// free-list frame owning a pooled packet. The keys repeat, so neither the
// result nor its interned keys grow: what is counted is the round.
func TestSwapRoundAllocatesNothing(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SwapThreshold = 1
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var h *hostd.RecvHandle
	r.s.Spawn("driver", func(p *sim.Proc) {
		var err error
		if h, err = r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum, Rows: 64}); err != nil {
			t.Error(err)
		}
	})
	r.s.Run(0)
	if h == nil {
		t.Fatal("task not submitted")
	}
	// data builds a one-value-per-key data packet of the task on flow.
	data := func(flow core.FlowKey, keys ...string) *wire.Packet {
		pkt := &wire.Packet{Type: wire.TypeData, Task: 1, Flow: flow, Slots: make([]wire.Slot, cfg.NumAAs)}
		for _, k := range keys {
			pl := layout.Place(k)
			if pl.Class != keyspace.Short || pkt.Bitmap.Test(pl.FirstSlot) {
				t.Fatalf("key %q: class %v, slot %d taken: pick another", k, pl.Class, pl.FirstSlot)
			}
			pkt.Slots[pl.FirstSlot] = wire.Slot{KPart: pl.KParts[0], Val: 1}
			pkt.Bitmap = pkt.Bitmap.Set(pl.FirstSlot)
		}
		return pkt
	}
	absorbed := data(core.FlowKey{Host: 1, Channel: 0}, "a", "bb", "ccc")
	residue := data(core.FlowKey{Host: 1, Channel: 1}, "z")
	pool := netsim.PoolOf(r.s)
	deliver := func(pkt *wire.Packet, to func(*netsim.Frame)) {
		f := pool.NewFrame()
		f.Src, f.Dst, f.WireBytes = 1, 0, pkt.WireBytes(cfg.KPartBytes)
		f.Pkt, f.Owned = pool.Clone(pkt), true
		to(f)
	}
	var seq uint32
	round := func() {
		absorbed.Seq, residue.Seq = seq, seq
		seq++
		deliver(absorbed, r.sw.HandleIngress)
		deliver(residue, r.daemons[0].HandleFrame)
		r.s.Run(0)
	}
	const warm, runs = 100, 200
	for i := 0; i < warm; i++ {
		round()
	}
	if a := testing.AllocsPerRun(runs, round); a != 0 {
		t.Errorf("swap round allocates %v objects, want 0", a)
	}
	const each = warm + runs + 1 // AllocsPerRun adds one warm-up run
	st, sw := h.Stats(), r.sw.Stats()
	if st.Swaps != each || st.SwitchEntries != 3*each || st.ResidueTuples != each || sw.Fetches != each || sw.Clears != each {
		t.Errorf("swaps %d, entries merged %d, residue tuples %d, fetches %d, clears %d; want %d rounds of 3 entries and 1 residue tuple",
			st.Swaps, st.SwitchEntries, st.ResidueTuples, sw.Fetches, sw.Clears, each)
	}
}
