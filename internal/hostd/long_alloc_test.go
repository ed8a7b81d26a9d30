//go:build !race

package hostd

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// releasingHost hands every delivered frame straight back to the free lists,
// as a daemon does once it has processed a packet.
type releasingHost struct{ got int }

func (h *releasingHost) HandleFrame(f *netsim.Frame) {
	h.got++
	f.Release()
}

// TestLongKeyPacketAllocatesNothing pins the long-key bypass (§3.2.3) at zero
// in steady state: a packet the packetizer cuts around one long key
// (Pool.NewLong), sent the way a data channel sends it — in a free-list frame
// the sender does not own, so the first link delivers a pooled clone, which
// the switch forwards and the receiving host releases — and then released by
// the sender, as the ACK of its flight does (dataChannel.acked). Without the
// Long free list this is two arrays per packet: the packetizer's and the
// clone's.
func TestLongKeyPacketAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLinkConfig())
	n.AttachSwitch(&netsim.ForwardingSwitch{Net: n})
	rx := &releasingHost{}
	n.AttachHost(1, rx)
	n.AttachHost(2, rx)
	key := strings.Repeat("long-key/", 8)
	due := false
	pool := netsim.PoolOf(s)
	pz := newPacketizer(&pool.Pool, testLayout(t), func() (core.KV, bool) {
		due = !due // one tuple, then a lull: the packetizer flushes it alone
		return core.KV{Key: key, Val: 1}, due
	}, atEOF)
	send := func() {
		pkt, tuples, ok := pz.next()
		if !ok || pkt.Type != wire.TypeLongKey || tuples != 1 || pkt.Long[0].Key != key {
			t.Fatalf("packetizer gave %v (%d tuples, ok %v), want a one-tuple long-key packet", pkt, tuples, ok)
		}
		f := pool.NewFrame()
		f.Src, f.Dst, f.Pkt, f.WireBytes = 1, 2, pkt, pkt.WireBytes(4)
		n.HostSend(f) // not owned: the sender keeps pkt for retransmission
		s.Run(0)
		pool.Release(pkt)
	}
	const warm, runs = 100, 200
	for i := 0; i < warm; i++ {
		send()
	}
	if a := testing.AllocsPerRun(runs, send); a != 0 {
		t.Errorf("long-key packet allocates %v objects from packetizer to release, want 0", a)
	}
	if want := warm + runs + 1; rx.got != want { // AllocsPerRun adds one warm-up run
		t.Errorf("receiver got %d long-key packets, want %d", rx.got, want)
	}
}
