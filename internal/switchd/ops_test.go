package switchd

// Operator and width coverage for the switch aggregators: the register
// action must implement every core.Op over sign-extended n-bit vParts, and
// the layout must work at narrower kPart widths.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

func opRig(t *testing.T, op core.Op) *testRig {
	t.Helper()
	r := newRig(t, smallConfig())
	if _, err := r.sw.AllocRegion(7, 2, op, 32); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSwitchOpMax(t *testing.T) {
	r := opRig(t, core.OpMax)
	for _, v := range []int64{3, -10, 42, 7} {
		r.send(r.packetize(7, []core.KV{{Key: "m", Val: v}}))
	}
	if got := r.fetchAll(7); got["m"] != 42 {
		t.Fatalf("max = %d, want 42 (%v)", got["m"], got)
	}
}

func TestSwitchOpMin(t *testing.T) {
	r := opRig(t, core.OpMin)
	for _, v := range []int64{3, -10, 42, -2} {
		r.send(r.packetize(7, []core.KV{{Key: "m", Val: v}}))
	}
	if got := r.fetchAll(7); got["m"] != -10 {
		t.Fatalf("min = %d, want -10 (%v)", got["m"], got)
	}
}

func TestSwitchOpCount(t *testing.T) {
	r := opRig(t, core.OpCount)
	for i := 0; i < 5; i++ {
		r.send(r.packetize(7, []core.KV{{Key: "c", Val: int64(100 * i)}}))
	}
	if got := r.fetchAll(7); got["c"] != 5 {
		t.Fatalf("count = %d, want 5 (%v)", got["c"], got)
	}
}

func TestSwitchNegativeSums(t *testing.T) {
	r := opRig(t, core.OpSum)
	for _, v := range []int64{-5, -7, 20, -9} {
		r.send(r.packetize(7, []core.KV{{Key: "s", Val: v}}))
	}
	if got := r.fetchAll(7); got["s"] != -1 {
		t.Fatalf("sum = %d, want -1", got["s"])
	}
}

func TestNarrowKPartConfig(t *testing.T) {
	// 2-byte kParts (32-bit aggregators): keys of 1–2 bytes are short,
	// 3–4 bytes are medium, longer keys bypass.
	cfg := core.DefaultConfig()
	cfg.KPartBytes = 2
	cfg.AARows = 64
	cfg.SwapThreshold = 0
	r := newRig(t, cfg)
	r.mustAlloc(7, 32)
	r.send(r.packetize(7, []core.KV{{Key: "ab", Val: 3}}))
	r.send(r.packetize(7, []core.KV{{Key: "ab", Val: 4}, {Key: "wxyz", Val: 9}}))
	got := r.fetchAll(7)
	if got["ab"] != 7 || got["wxyz"] != 9 {
		t.Fatalf("narrow-kPart state = %v", got)
	}
}

func TestVPartValueRange(t *testing.T) {
	// Values near the 32-bit vPart limits survive the encode/decode.
	r := opRig(t, core.OpSum)
	big := int64(1)<<31 - 1
	r.send(r.packetize(7, []core.KV{{Key: "b", Val: big}}))
	neg := -(int64(1) << 31)
	r.send(r.packetize(7, []core.KV{{Key: "n", Val: neg}}))
	got := r.fetchAll(7)
	if got["b"] != big || got["n"] != neg {
		t.Fatalf("extreme values corrupted: %v", got)
	}
}

func TestAckCarriesOriginalType(t *testing.T) {
	// Switch ACKs echo the acknowledged packet's type so hosts can route
	// them (AckFor).
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	pkt := r.packetize(7, []core.KV{{Key: "a", Val: 1}})
	r.send(pkt)
	if len(r.at1) != 1 {
		t.Fatalf("frames at sender: %d", len(r.at1))
	}
	ack := r.at1[0].Pkt
	if ack.Type != wire.TypeAck || ack.AckFor != wire.TypeData || ack.Task != 7 {
		t.Fatalf("ack = %+v", ack)
	}
}

func TestPipelinePassCounting(t *testing.T) {
	// Every flow packet costs exactly one pipeline pass; forwarded control
	// frames cost none.
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	before := r.sw.Pipeline().Passes()
	r.send(r.packetize(7, []core.KV{{Key: "a", Val: 1}}))
	r.send(r.packetize(7, []core.KV{{Key: "b", Val: 1}}))
	ctrl := &wire.Packet{Type: wire.TypeCtrl, Flow: core.FlowKey{Host: 1, Channel: 0}}
	r.net.HostSend(&netsim.Frame{Src: 1, Dst: 2, Pkt: ctrl, WireBytes: ctrl.WireBytes(4)})
	r.sim.Run(0)
	if got := r.sw.Pipeline().Passes() - before; got != 2 {
		t.Fatalf("passes = %d, want 2", got)
	}
}

func TestSwitchdOnFatTreeLeaf(t *testing.T) {
	// The switch program runs unchanged on a fat-tree leaf port — a TOR of
	// the multi-rack deployment.
	s := sim.New(1)
	tt := netsim.NewFatTree(s, 1, 1, netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig())
	sw, err := New(s, tt.Leaf(0), smallConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sink1, sink2 := &frameSink{new([]*netsim.Frame)}, &frameSink{new([]*netsim.Frame)}
	tt.AttachHostLeaf(0, 1, sink1)
	tt.AttachHostLeaf(0, 2, sink2)
	if _, err := sw.RegisterFlow(core.FlowKey{Host: 1, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AllocRegion(7, 2, core.OpSum, 32); err != nil {
		t.Fatal(err)
	}
	layout := mustLayout(t, smallConfig())
	p := layout.Place("kk")
	pkt := &wire.Packet{Type: wire.TypeData, Task: 7, Flow: core.FlowKey{Host: 1, Channel: 0},
		Slots: make([]wire.Slot, smallConfig().NumAAs)}
	pkt.Slots[p.FirstSlot] = wire.Slot{KPart: p.KParts[0], Val: 5}
	pkt.Bitmap = pkt.Bitmap.Set(p.FirstSlot)
	tt.HostSend(&netsim.Frame{Src: 1, Dst: 2, Pkt: pkt, WireBytes: pkt.WireBytes(4)})
	s.Run(0)
	if len(*sink1.frames) != 1 || (*sink1.frames)[0].Pkt.Type != wire.TypeAck {
		t.Fatalf("sender frames: %v", *sink1.frames)
	}
	if sw.TaskStatsOf(7).TuplesAggregated != 1 {
		t.Fatal("tuple not aggregated on TOR fabric")
	}
}
