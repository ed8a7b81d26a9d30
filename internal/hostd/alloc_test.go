//go:build !race

package hostd_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
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
	inline := func(name string, pkt *wire.Packet) {
		deliver := func() {
			f := netsim.NewFrame()
			f.Src, f.Dst, f.Pkt, f.Owned = 1, 0, pkt.ClonePooled(), true
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
