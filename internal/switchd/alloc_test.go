//go:build !race

package switchd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
)

// releasingHost hands every delivered frame straight back to the free lists,
// as a daemon does with an ACK.
type releasingHost struct{ got int }

func (h *releasingHost) HandleFrame(f *netsim.Frame) {
	h.got++
	f.Release()
}

// TestIngressAllocatesNothing pins the switch's share of the per-packet path
// in steady state: a data packet whose tuples all match their aggregators
// (absorbed, ACK sent to the sender) and its retransmission (seen hit,
// PktState restore, ACK again) each run HandleIngress, the ACK's reply frame
// and its delivery without allocating.
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
	live := pkt.Bitmap
	f := &netsim.Frame{Src: 3, Dst: 2, Pkt: pkt, WireBytes: pkt.WireBytes(r.sw.cfg.KPartBytes)}
	ingress := func() {
		pkt.Bitmap = live
		r.sw.HandleIngress(f)
		r.sim.Run(0)
	}
	next := uint32(0)
	absorb := func() {
		pkt.Seq = next
		next++
		ingress()
	}
	for i := 0; i < 100; i++ {
		absorb()
		ingress() // the same sequence number again: a retransmission
	}
	if a := testing.AllocsPerRun(200, absorb); a != 0 {
		t.Errorf("absorb ingress allocates %v objects per packet, want 0", a)
	}
	if a := testing.AllocsPerRun(200, ingress); a != 0 {
		t.Errorf("duplicate ingress allocates %v objects per packet, want 0", a)
	}
	if want := 2*100 + 2*201; sender.got != want || len(r.at2) != 0 {
		t.Errorf("sender got %d ACKs (want %d), receiver %d frames (want 0)", sender.got, want, len(r.at2))
	}
	if st := r.sw.Stats(); st.DupPackets != 100+201 {
		t.Errorf("duplicate packets %d, want %d", st.DupPackets, 100+201)
	}
}
