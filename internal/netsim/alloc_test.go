//go:build !race

package netsim

import (
	"testing"

	"repro/internal/wire"
)

// TestHopAllocatesNothing pins the fabric's share of the per-packet path: a
// frame from host 1 through the forwarding switch to host 2 — uplink,
// switch-latency hop, downlink — allocates nothing in steady state, whether
// the sender relinquishes the packet (ownership transfer end to end) or
// retains it (one pooled clone at the first link, handed through after that).
func TestHopAllocatesNothing(t *testing.T) {
	s, n, _ := testNet(1, DefaultLinkConfig())
	h := &releasingHost{}
	n.AttachHost(1, h)
	n.AttachHost(2, h)
	send := func(pkt *wire.Packet, owned bool) {
		f := NewFrame()
		f.Src, f.Dst, f.Pkt, f.WireBytes, f.Owned = 1, 2, pkt, pkt.WireBytes(4), owned
		n.HostSend(f)
		s.Run(0)
	}
	retained := &wire.Packet{Type: wire.TypeData, Slots: make([]wire.Slot, 32)}
	owned := func() { send(wire.NewData(32), true) }
	cloned := func() { send(retained, false) }
	for i := 0; i < 100; i++ {
		owned()
		cloned()
	}
	if a := testing.AllocsPerRun(200, owned); a != 0 {
		t.Errorf("owned hop allocates %v objects per frame, want 0", a)
	}
	if a := testing.AllocsPerRun(200, cloned); a != 0 {
		t.Errorf("cloned hop allocates %v objects per frame, want 0", a)
	}
	if want := 2 * (100 + 201); h.got != want { // AllocsPerRun adds one warm-up run
		t.Errorf("delivered %d frames, want %d", h.got, want)
	}
	if retained.Type != wire.TypeData || len(retained.Slots) != 32 {
		t.Errorf("the sender's retained packet was recycled: %+v", retained)
	}
}
