//go:build !race

package switchd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// releasingHost hands every delivered frame straight back to the free lists,
// as a daemon does with an ACK.
type releasingHost struct{ got int }

func (h *releasingHost) HandleFrame(f *netsim.Frame) {
	h.got++
	f.Release()
}

// TestIngressAllocatesNothing pins the switch's share of the per-packet path
// in steady state. Every row hands HandleIngress what a link delivers — a
// free-list frame that owns a pooled clone of the sender's packet — so the
// switch's own Release of it is what holds the count at zero (a struct-literal
// frame is never recycled and would hide a missing one). The rows: a data
// packet whose tuples all match their aggregators (absorbed, ACK sent to the
// sender, whose delivery is counted too), its retransmission (seen hit,
// PktState restore, ACK again), a packet max_seq rejects as stale, a swap
// request (switch-terminated, ACKed) and, last, any packet at a crashed switch.
func TestIngressAllocatesNothing(t *testing.T) {
	r := newRig(t, smallConfig())
	sender := &releasingHost{}
	r.net.AttachHost(3, sender)
	flow := core.FlowKey{Host: 3, Channel: 0}
	if _, err := r.sw.RegisterFlow(flow); err != nil {
		t.Fatal(err)
	}
	r.mustAlloc(1, 32)
	pkt := r.packetize(1, []core.KV{{Key: "a", Val: 1}, {Key: "bb", Val: 2}, {Key: "medium", Val: 3}})
	pkt.Flow = flow
	swap := &wire.Packet{Type: wire.TypeSwap, Task: 1, Flow: flow}
	pool := netsim.PoolOf(r.sim)
	ingress := func(pkt *wire.Packet, seq uint32) {
		pkt.Seq = seq
		f := pool.NewFrame()
		f.Src, f.Dst, f.WireBytes = 3, 2, pkt.WireBytes(r.sw.cfg.KPartBytes)
		f.Pkt, f.Owned = pool.Clone(pkt), true
		r.sw.HandleIngress(f)
		r.sim.Run(0)
	}
	// Two windows in, where a stale sequence number exists from the start and
	// the compact seen's parity reads as at sequence number zero.
	next, nextSwap := uint32(2*r.sw.cfg.Window), uint32(1)
	const warm, runs = 100, 200
	pin := func(name string, run func()) {
		for i := 0; i < warm; i++ {
			run()
		}
		if a := testing.AllocsPerRun(runs, run); a != 0 {
			t.Errorf("%s ingress allocates %v objects per packet, want 0", name, a)
		}
	}
	fresh := func() { ingress(pkt, next); next++ }
	pin("absorb", fresh)
	pin("duplicate", func() { ingress(pkt, next-1) }) // the same sequence number again: a retransmission
	pin("stale", func() { ingress(pkt, next-1-uint32(r.sw.cfg.Window)) })
	pin("swap", func() { ingress(swap, nextSwap); nextSwap++ })
	r.sw.Crash()
	pin("down", fresh)
	const each = warm + runs + 1 // AllocsPerRun adds one warm-up run
	if want := 3 * each; sender.got != want || len(r.at2) != 0 {
		t.Errorf("sender got %d ACKs (want %d), receiver %d frames (want 0)", sender.got, want, len(r.at2))
	}
	if st := r.sw.Stats(); st.DupPackets != each || st.StaleDropped != each || st.Swaps != each || st.DroppedDown != each {
		t.Errorf("duplicate, stale, swap, down packets = %d, %d, %d, %d, want %d each",
			st.DupPackets, st.StaleDropped, st.Swaps, st.DroppedDown, each)
	}
}
