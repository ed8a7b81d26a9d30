package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

type collector struct {
	frames []*Frame
	at     []sim.Time
	s      *sim.Simulation
}

func (c *collector) HandleFrame(f *Frame) {
	c.frames = append(c.frames, f)
	c.at = append(c.at, c.s.Now())
}

// releasingHost is a receiver that keeps nothing: every delivered frame goes
// straight back to the free lists, as hostd and switchd do.
type releasingHost struct{ got int }

func (h *releasingHost) HandleFrame(f *Frame) {
	h.got++
	f.Release()
}

func testNet(seed int64, cfg LinkConfig, hosts ...core.HostID) (*sim.Simulation, *Network, map[core.HostID]*collector) {
	s := sim.New(seed)
	n := New(s, cfg)
	n.AttachSwitch(&ForwardingSwitch{Net: n})
	cs := make(map[core.HostID]*collector)
	for _, h := range hosts {
		c := &collector{s: s}
		cs[h] = c
		n.AttachHost(h, c)
	}
	return s, n, cs
}

func frame(src, dst core.HostID, slots int) *Frame {
	p := &wire.Packet{Type: wire.TypeData, Slots: make([]wire.Slot, slots)}
	return &Frame{Src: src, Dst: dst, Pkt: p, WireBytes: p.WireBytes(4), GoodBytes: slots * 8}
}

func TestDeliveryAndLatency(t *testing.T) {
	cfg := DefaultLinkConfig() // 100Gbps, 1µs propagation
	s, n, cs := testNet(1, cfg, 1, 2)
	f := frame(1, 2, 32) // 334 bytes on the wire
	n.HostSend(f)
	s.Run(0)
	got := cs[2].frames
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	// Expected latency: 2 serializations (uplink+downlink) + 2 propagation
	// + switch latency. 334B at 100Gbps = 26.72ns each.
	bw := 100e9
	ser := time.Duration(float64(334*8) / bw * float64(time.Second))
	want := sim.Time(0).Add(2*ser + 2*time.Microsecond + defaultSwitchLatency)
	if cs[2].at[0] != want {
		t.Fatalf("arrival at %v, want %v", cs[2].at[0], want)
	}
	// One event per link: the switch hop rides the uplink's delivery.
	if fired := s.Stats().Fired; fired != 2 {
		t.Fatalf("%d events for one frame across the rack, want 2", fired)
	}
}

func TestSerializationThroughput(t *testing.T) {
	// Sending N frames back-to-back must take N × serialization time:
	// the link is the bottleneck and enforces line rate.
	cfg := DefaultLinkConfig()
	s, n, cs := testNet(1, cfg, 1, 2)
	const N = 1000
	for i := 0; i < N; i++ {
		n.HostSend(frame(1, 2, 32))
	}
	serAll := n.Uplink(1).NextFree() // all frames queued at t=0, so the
	// uplink is busy [0, serAll): total serialization time.
	s.Run(0)
	if len(cs[2].frames) != N {
		t.Fatalf("delivered %d, want %d", len(cs[2].frames), N)
	}
	// Implied wire throughput ≈ 100Gbps on the uplink.
	st := n.Uplink(1).Stats()
	gbps := float64(st.TxWireBytes*8) / time.Duration(serAll).Seconds() / 1e9
	if gbps < 99.99 || gbps > 100.01 {
		t.Fatalf("uplink rate %.4f Gbps, want ~100", gbps)
	}
}

func TestFIFOWithoutFaults(t *testing.T) {
	s, n, cs := testNet(1, DefaultLinkConfig(), 1, 2)
	for i := 0; i < 50; i++ {
		f := frame(1, 2, 1)
		f.Pkt.Seq = uint32(i)
		n.HostSend(f)
	}
	s.Run(0)
	for i, f := range cs[2].frames {
		if f.Pkt.Seq != uint32(i) {
			t.Fatalf("frame %d has seq %d: reordered without faults", i, f.Pkt.Seq)
		}
	}
}

func TestLoss(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.LossProb = 0.3
	s, n, cs := testNet(42, cfg, 1, 2)
	const N = 5000
	for i := 0; i < N; i++ {
		n.HostSend(frame(1, 2, 1))
	}
	s.Run(0)
	// Loss applies independently on uplink and downlink: P(delivered) ≈ 0.49.
	got := float64(len(cs[2].frames)) / N
	if got < 0.44 || got > 0.54 {
		t.Fatalf("delivery rate %.3f, want ~0.49", got)
	}
	if n.Uplink(1).Stats().Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestDuplication(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.DupProb = 0.5
	s, n, cs := testNet(7, cfg, 1, 2)
	const N = 2000
	for i := 0; i < N; i++ {
		n.HostSend(frame(1, 2, 1))
	}
	s.Run(0)
	// Each hop duplicates with p=0.5: E[copies] = 1.5² = 2.25.
	ratio := float64(len(cs[2].frames)) / N
	if ratio < 2.0 || ratio > 2.5 {
		t.Fatalf("dup ratio %.3f, want ~2.25", ratio)
	}
}

func TestReorder(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.ReorderProb = 0.2
	cfg.Fault.ReorderDelay = 50 * time.Microsecond
	s, n, cs := testNet(3, cfg, 1, 2)
	const N = 500
	for i := 0; i < N; i++ {
		f := frame(1, 2, 1)
		f.Pkt.Seq = uint32(i)
		n.HostSend(f)
	}
	s.Run(0)
	if len(cs[2].frames) != N {
		t.Fatalf("delivered %d, want %d (reorder must not lose)", len(cs[2].frames), N)
	}
	inversions := 0
	for i := 1; i < len(cs[2].frames); i++ {
		if cs[2].frames[i].Pkt.Seq < cs[2].frames[i-1].Pkt.Seq {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no reordering observed")
	}
}

func TestDeliveredFramesAreClones(t *testing.T) {
	s, n, cs := testNet(1, DefaultLinkConfig(), 1, 2)
	f := frame(1, 2, 4)
	f.Pkt.Bitmap = wire.Bitmap(0).Set(0).Set(1)
	n.HostSend(f)
	s.Run(0)
	got := cs[2].frames[0].Pkt
	got.Bitmap = got.Bitmap.Clear(0)
	got.Slots[0].Val = 999
	if !f.Pkt.Bitmap.Test(0) || f.Pkt.Slots[0].Val == 999 {
		t.Fatal("receiver mutation leaked into sender's packet")
	}
}

func TestBackpressureSignals(t *testing.T) {
	s, n, _ := testNet(1, DefaultLinkConfig(), 1, 2)
	l := n.Uplink(1)
	if l.Backlog() != 0 {
		t.Fatal("idle link has backlog")
	}
	for i := 0; i < 100; i++ {
		n.HostSend(frame(1, 2, 32))
	}
	if l.Backlog() == 0 {
		t.Fatal("loaded link reports no backlog")
	}
	if l.NextFree() <= s.Now() {
		t.Fatal("NextFree not in the future")
	}
	s.Run(0)
}

func TestPerHostLinkConfig(t *testing.T) {
	s := sim.New(1)
	n := New(s, DefaultLinkConfig())
	n.AttachSwitch(&ForwardingSwitch{Net: n})
	slow := DefaultLinkConfig()
	slow.BandwidthBps = 10e9
	c1, c2 := &collector{s: s}, &collector{s: s}
	n.AttachHostLink(1, c1, slow)
	n.AttachHost(2, c2)
	n.HostSend(frame(1, 2, 32))
	s.Run(0)
	if len(c2.frames) != 1 {
		t.Fatal("frame not delivered across mixed-speed links")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("double attach did not panic")
		}
	}()
	s := sim.New(1)
	n := New(s, DefaultLinkConfig())
	c := &collector{s: s}
	n.AttachHost(1, c)
	n.AttachHost(1, c)
}

func TestSendToUnattachedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("send from unattached host did not panic")
		}
	}()
	s := sim.New(1)
	n := New(s, DefaultLinkConfig())
	n.HostSend(frame(9, 2, 1))
}

// --- End-to-end integrity faults (corruption / truncation) ---

func TestCorruptionDeliversDamagedBytes(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.CorruptProb = 1.0
	s, n, cs := testNet(5, cfg, 1, 2)
	codec := wire.Codec{KPartBytes: 4}
	n.SetCodec(codec)
	const N = 50
	for i := 0; i < N; i++ {
		f := frame(1, 2, 4)
		f.Pkt.Bitmap = wire.Bitmap(0).Set(0).Set(2)
		n.HostSend(f)
	}
	s.Run(0)
	if len(cs[2].frames) != N {
		t.Fatalf("delivered %d frames, want %d (corruption must deliver, not drop)", len(cs[2].frames), N)
	}
	for i, g := range cs[2].frames {
		if g.Raw == nil || g.Pkt != nil {
			t.Fatalf("frame %d: corrupted frame must carry Raw and nil Pkt", i)
		}
		if _, err := codec.Decode(g.Raw); !errors.Is(err, wire.ErrChecksum) {
			t.Fatalf("frame %d: Decode of damaged bytes = %v, want ErrChecksum", i, err)
		}
	}
	// Every hop corrupts; the first hop's damage is what arrives (the switch
	// here is a plain forwarder that doesn't decode). Both directions count.
	if n.Uplink(1).Stats().Corrupted == 0 || n.Downlink(2).Stats().Corrupted == 0 {
		t.Fatal("corruption not counted on both hops")
	}
}

func TestTruncationDeliversTypedError(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.TruncateProb = 1.0
	s, n, cs := testNet(6, cfg, 1, 2)
	codec := wire.Codec{KPartBytes: 4}
	n.SetCodec(codec)
	const N = 50
	for i := 0; i < N; i++ {
		n.HostSend(frame(1, 2, 4))
	}
	s.Run(0)
	if len(cs[2].frames) != N {
		t.Fatalf("delivered %d frames, want %d", len(cs[2].frames), N)
	}
	for i, g := range cs[2].frames {
		if g.Raw == nil {
			t.Fatalf("frame %d not marked corrupted", i)
		}
		full := frame(1, 2, 4).Pkt.BufferBytes(4) + wire.ChecksumBytes
		if len(g.Raw) >= full {
			t.Fatalf("frame %d: truncated frame has %d bytes, want < %d", i, len(g.Raw), full)
		}
		_, err := codec.Decode(g.Raw)
		if err == nil {
			t.Fatalf("frame %d: truncated bytes decoded cleanly", i)
		}
		if !errors.Is(err, wire.ErrChecksum) && !errors.Is(err, wire.ErrTruncated) {
			t.Fatalf("frame %d: err %v is not a typed integrity error", i, err)
		}
	}
	if n.Uplink(1).Stats().Truncated == 0 {
		t.Fatal("truncation not counted")
	}
}

func TestCorruptionWithoutCodecDegradesToDrop(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.CorruptProb = 1.0
	s, n, cs := testNet(7, cfg, 1, 2) // no SetCodec
	n.HostSend(frame(1, 2, 4))
	s.Run(0)
	if len(cs[2].frames) != 0 {
		t.Fatal("corruption without a codec must degrade to a drop")
	}
	if n.Uplink(1).Stats().Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", n.Uplink(1).Stats().Corrupted)
	}
}

func TestCorruptionOfCtrlIsDrop(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.CorruptProb = 1.0
	s, n, cs := testNet(8, cfg, 1, 2)
	n.SetCodec(wire.Codec{KPartBytes: 4})
	p := &wire.Packet{Type: wire.TypeCtrl, Ctrl: "opaque"}
	n.HostSend(&Frame{Src: 1, Dst: 2, Pkt: p, WireBytes: p.WireBytes(4)})
	s.Run(0)
	if len(cs[2].frames) != 0 {
		t.Fatal("corrupted TypeCtrl must be dropped (not byte-encodable)")
	}
}

func TestCorruptionDeterministicUnderSeed(t *testing.T) {
	run := func() [][]byte {
		cfg := DefaultLinkConfig()
		cfg.Fault.CorruptProb = 0.5
		cfg.Fault.TruncateProb = 0.25
		s, n, cs := testNet(99, cfg, 1, 2)
		n.SetCodec(wire.Codec{KPartBytes: 4})
		for i := 0; i < 100; i++ {
			f := frame(1, 2, 4)
			f.Pkt.Seq = uint32(i)
			n.HostSend(f)
		}
		s.Run(0)
		var raws [][]byte
		for _, g := range cs[2].frames {
			raws = append(raws, g.Raw)
		}
		return raws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("frame %d raw bytes differ across identically seeded runs", i)
		}
	}
}

func TestSwitchSendUnroutableIsCountedDrop(t *testing.T) {
	s, n, _ := testNet(1, DefaultLinkConfig(), 1, 2)
	n.SwitchSend(frame(1, 77, 1)) // host 77 not attached: must not panic
	s.Run(0)
	if n.Unroutable() != 1 {
		t.Fatalf("Unroutable = %d, want 1", n.Unroutable())
	}
}

// TestDuplicatedSiblingFramesAreIndependent is the regression test for the
// duplicate-frame deep-copy guarantee: a receiver mutating one delivered
// copy's slots or bitmap must corrupt neither the sender's retransmission
// buffer nor any duplicated sibling copy.
func TestDuplicatedSiblingFramesAreIndependent(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault.DupProb = 1.0 // every hop duplicates: 1 send -> 4 copies
	s, n, cs := testNet(9, cfg, 1, 2)
	f := frame(1, 2, 4)
	f.Pkt.Bitmap = wire.Bitmap(0).Set(0).Set(1)
	f.Pkt.Slots[0] = wire.Slot{KPart: wire.PackKPart([]byte("k0"), 4), Val: 100}
	f.Pkt.Slots[1] = wire.Slot{KPart: wire.PackKPart([]byte("k1"), 4), Val: 200}
	n.HostSend(f)
	s.Run(0)
	got := cs[2].frames
	if len(got) != 4 {
		t.Fatalf("delivered %d copies, want 4", len(got))
	}
	// Mutate the first delivered copy the way a receiver's aggregation pass
	// would: consume tuples, clear bits, zero slots.
	victim := got[0].Pkt
	victim.Bitmap = 0
	victim.Slots[0] = wire.Slot{}
	victim.Slots[1] = wire.Slot{Val: -1}
	// Sender's retransmission buffer intact.
	if !f.Pkt.Bitmap.Test(0) || f.Pkt.Slots[0].Val != 100 || f.Pkt.Slots[1].Val != 200 {
		t.Fatal("receiver mutation leaked into sender's retransmission buffer")
	}
	// Every sibling copy intact.
	for i, g := range got[1:] {
		if g.Pkt == victim {
			t.Fatalf("sibling %d aliases the mutated copy", i+1)
		}
		if !g.Pkt.Bitmap.Test(0) || g.Pkt.Slots[0].Val != 100 || g.Pkt.Slots[1].Val != 200 {
			t.Fatalf("sibling %d shares slot storage with the mutated copy", i+1)
		}
	}
}

// TestLiteralFrameNeverRecycled: only a frame drawn from the free list goes
// back to it. A frame built as a struct literal — even an owned one, released
// twice and sent again, as bench/ and the baselines do with theirs — is never
// handed out by NewFrame, so its builder can keep using it.
func TestLiteralFrameNeverRecycled(t *testing.T) {
	s, n, _ := testNet(1, DefaultLinkConfig())
	pool := PoolOf(s)
	pool.Poison = true
	h := &releasingHost{}
	n.AttachHost(1, h)
	n.AttachHost(2, h)

	lit := &Frame{Src: 1, Dst: 2, Pkt: wire.NewPacket(), WireBytes: 100, Owned: true}
	lit.Release()
	lit.Release()
	if lit.Pkt != nil || lit.Src != 1 || lit.Dst != 2 || lit.WireBytes != 100 {
		t.Fatalf("released literal frame = %+v: packet must be gone, the rest intact", lit)
	}
	lit.Pkt = wire.NewPacket()
	n.HostSend(lit) // owned, one copy: handed through to host 2, which releases it
	s.Run(0)
	if h.got != 1 || lit.Pkt != nil || lit.Dst != 2 {
		t.Fatalf("re-sent literal frame: delivered %d, frame %+v", h.got, lit)
	}
	for i := 0; i < 64; i++ {
		if f := pool.NewFrame(); f == lit {
			t.Fatal("the free list handed out a struct-literal frame")
		}
	}

	// A free-list frame does go back, poisoned: a stale holder sees sentinels.
	f := pool.NewFrame()
	f.Src, f.Dst, f.WireBytes = 1, 2, 100
	f.Release()
	if f.Src != PoisonAddr || f.Dst != PoisonAddr || f.WireBytes != PoisonWireBytes || f.Pkt != nil {
		t.Fatalf("released free-list frame not poisoned: %+v", f)
	}
}
