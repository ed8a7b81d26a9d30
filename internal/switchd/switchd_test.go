package switchd

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// testRig wires a switch between a sender host (1) and receiver host (2).
type testRig struct {
	t      *testing.T
	sim    *sim.Simulation
	net    *netsim.Network
	sw     *Switch
	layout *keyspace.Layout
	// Frames delivered to each host.
	at1, at2 []*netsim.Frame
	nextSeq  uint32
}

type frameSink struct{ frames *[]*netsim.Frame }

func (fs frameSink) HandleFrame(f *netsim.Frame) { *fs.frames = append(*fs.frames, f) }

func newRig(t *testing.T, cfg core.Config) *testRig {
	t.Helper()
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLinkConfig())
	sw, err := New(s, n, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &testRig{t: t, sim: s, net: n, sw: sw, layout: layout}
	n.AttachHost(1, frameSink{&r.at1})
	n.AttachHost(2, frameSink{&r.at2})
	if _, err := sw.RegisterFlow(core.FlowKey{Host: 1, Channel: 0}); err != nil {
		t.Fatal(err)
	}
	return r
}

// packetize builds one data packet from tuples using the sender-assisted
// placement; it fails the test if two tuples contend for one slot group.
func (r *testRig) packetize(task core.TaskID, kvs []core.KV) *wire.Packet {
	r.t.Helper()
	pkt := &wire.Packet{
		Type:  wire.TypeData,
		Task:  task,
		Flow:  core.FlowKey{Host: 1, Channel: 0},
		Slots: make([]wire.Slot, r.layout.Config().NumAAs),
	}
	for _, kv := range kvs {
		p := r.layout.Place(kv.Key)
		if p.Class == keyspace.Long {
			r.t.Fatalf("key %q is long; use a long-key packet", kv.Key)
		}
		if pkt.Bitmap.Test(p.FirstSlot) {
			r.t.Fatalf("slot %d already used; split %q into another packet", p.FirstSlot, kv.Key)
		}
		for j, kp := range p.KParts {
			slot := wire.Slot{KPart: kp}
			if j == len(p.KParts)-1 {
				slot.Val = kv.Val
			}
			pkt.Slots[p.FirstSlot+j] = slot
			pkt.Bitmap = pkt.Bitmap.Set(p.FirstSlot + j)
		}
	}
	return pkt
}

// send injects a packet from host 1 toward host 2 and runs the simulation.
func (r *testRig) send(pkt *wire.Packet) {
	if pkt.Seq == 0 && pkt.Type == wire.TypeData {
		pkt.Seq = r.nextSeq
		r.nextSeq++
	}
	r.net.HostSend(&netsim.Frame{
		Src: 1, Dst: 2, Pkt: pkt,
		WireBytes: pkt.WireBytes(r.sw.cfg.KPartBytes),
	})
	r.sim.Run(0)
}

// resend re-injects the same packet (retransmission), with its original seq.
func (r *testRig) resend(pkt *wire.Packet) {
	r.net.HostSend(&netsim.Frame{
		Src: 1, Dst: 2, Pkt: pkt,
		WireBytes: pkt.WireBytes(r.sw.cfg.KPartBytes),
	})
	r.sim.Run(0)
}

// sameSlotKeys returns two distinct keys from keyf(0), keyf(1), ... that the
// layout places in the same slot (short keys) or slot group (medium keys), so
// that on a one-row region the second conflicts with the first.
func (r *testRig) sameSlotKeys(keyf func(int) string) (string, string) {
	r.t.Helper()
	bySlot := make(map[int]string)
	for i := 0; i < 1000; i++ {
		k := keyf(i)
		slot := r.layout.Place(k).FirstSlot
		if prev, ok := bySlot[slot]; ok {
			return prev, k
		}
		bySlot[slot] = k
	}
	r.t.Fatal("no two keys share a slot")
	return "", ""
}

func shortKey(i int) string { return fmt.Sprint("k", i) }

func smallConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AARows = 64 // two shadow copies of 32 rows (SwapThreshold > 0)
	return cfg
}

func (r *testRig) mustAlloc(task core.TaskID, rows int) *Region {
	r.t.Helper()
	reg, err := r.sw.AllocRegion(task, 2, core.OpSum, rows)
	if err != nil {
		r.t.Fatal(err)
	}
	return reg
}

// fetchAll snapshots both copies of a task's region via control reads,
// returning the aggregated result (test-side shortcut around the fetch
// protocol, which hostd exercises end to end).
func (r *testRig) fetchAll(task core.TaskID) core.Result {
	r.t.Helper()
	reg := r.sw.RegionOf(task)
	res := make(core.Result)
	n := uint(8 * r.sw.cfg.KPartBytes)
	collect := func(lo, hi int) {
		shortSlots := r.layout.ShortSlots()
		for ai := 0; ai < shortSlots; ai++ {
			for row := lo; row < hi; row++ {
				cur := r.sw.raAAs[ai].ControlRead(row)
				if kp := cur >> n; kp != 0 {
					key := string(r.layout.AppendKey(nil, []wire.Slot{{KPart: kp << (64 - n)}}))
					res.Merge(core.Result{key: r.sw.decodeVal(cur & r.sw.nMask())}, reg.Op)
				}
			}
		}
		m := r.sw.cfg.MediumSegs
		for g := 0; g < r.sw.cfg.MediumGroups; g++ {
			first := shortSlots + g*m
			for row := lo; row < hi; row++ {
				group := make([]wire.Slot, m)
				blank := false
				for j := 0; j < m; j++ {
					cur := r.sw.raAAs[first+j].ControlRead(row)
					kp := cur >> n
					if kp == 0 {
						blank = true
						break
					}
					group[j].KPart = kp << (64 - n)
				}
				if blank {
					continue
				}
				key := string(r.layout.AppendKey(nil, group))
				last := r.sw.raAAs[first+m-1].ControlRead(row)
				res.Merge(core.Result{key: r.sw.decodeVal(last & r.sw.nMask())}, reg.Op)
			}
		}
	}
	for c := 0; c < reg.Copies; c++ {
		lo := reg.Lo + c*reg.CopyRows
		collect(lo, lo+reg.CopyRows)
	}
	return res
}

func TestPipelineFitsTofinoBudget(t *testing.T) {
	cfg := core.DefaultConfig() // 32 AAs × 32768 × 64-bit
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLinkConfig())
	sw, err := New(s, n, cfg, DefaultOptions())
	if err != nil {
		t.Fatalf("paper configuration does not fit the PISA model: %v", err)
	}
	pipe := sw.Pipeline()
	// AAs dominate: 32 × 256 KB = 8 MB, within the ~15 MB paper budget.
	if got := pipe.SRAMBytes(); got < 8<<20 || got > 10<<20 {
		t.Fatalf("total SRAM = %d bytes", got)
	}
	// §3.3: seen + PktState for one channel is 256 + 256×32 bits = 1056 B.
	perFlowBits := cfg.Window*1 + cfg.Window*cfg.NumAAs
	if perFlowBits != 8448 { // 1056 bytes
		t.Fatalf("per-flow reliability state = %d bits, want 8448 (1056 B)", perFlowBits)
	}
}

func TestPipelineRejectsOversizedConfig(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.AARows = 1 << 20 // 8 MB per AA: 4 per stage cannot fit
	s := sim.New(1)
	n := netsim.New(s, netsim.DefaultLinkConfig())
	if _, err := New(s, n, cfg, DefaultOptions()); err == nil {
		t.Fatal("oversized AAs accepted")
	}
}

func TestFullAggregationAcksSender(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	pkt := r.packetize(7, []core.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}})
	r.send(pkt)
	if len(r.at2) != 0 {
		t.Fatalf("receiver got %d frames, want 0 (fully aggregated)", len(r.at2))
	}
	if len(r.at1) != 1 || r.at1[0].Pkt.Type != wire.TypeAck {
		t.Fatalf("sender frames: %+v", r.at1)
	}
	if r.at1[0].Pkt.Seq != pkt.Seq {
		t.Fatal("ACK sequence mismatch")
	}
	got := r.fetchAll(7)
	want := core.Result{"a": 1, "b": 2}
	if !got.Equal(want) {
		t.Fatalf("switch state = %v, want %v (%s)", got, want, got.Diff(want, 5))
	}
	ts := r.sw.TaskStatsOf(7)
	if ts.TuplesAggregated != 2 || ts.AckedPackets != 1 {
		t.Fatalf("stats = %+v", ts)
	}
}

func TestRepeatedKeyAccumulates(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	for i := 0; i < 5; i++ {
		r.send(r.packetize(7, []core.KV{{Key: "hot", Val: 3}}))
	}
	got := r.fetchAll(7)
	if got["hot"] != 15 {
		t.Fatalf(`switch sum for "hot" = %d, want 15`, got["hot"])
	}
}

func TestConflictForwardsResidue(t *testing.T) {
	cfg := smallConfig()
	cfg.SwapThreshold = 0
	r := newRig(t, cfg)
	r.mustAlloc(7, 1) // one row per AA: same-slot distinct keys must collide
	k1, k2 := r.sameSlotKeys(shortKey)
	r.send(r.packetize(7, []core.KV{{Key: k1, Val: 1}}))
	r.at1, r.at2 = nil, nil
	pkt := r.packetize(7, []core.KV{{Key: k2, Val: 9}})
	r.send(pkt)
	if len(r.at2) != 1 {
		t.Fatalf("receiver frames = %d, want 1 (conflict forwarded)", len(r.at2))
	}
	fwd := r.at2[0].Pkt
	if fwd.LiveTuples() != 1 {
		t.Fatalf("forwarded live tuples = %d", fwd.LiveTuples())
	}
	slot := r.layout.Place(k2).FirstSlot
	if !fwd.Bitmap.Test(slot) || fwd.Slots[slot].Val != 9 {
		t.Fatal("residue tuple corrupted")
	}
	if len(r.at1) != 0 {
		t.Fatal("sender got an ACK for a partial packet")
	}
	if got := r.fetchAll(7); got[k2] != 0 {
		t.Fatalf("conflicting key leaked into switch: %v", got)
	}
}

func TestRetransmitFullyAggregatedIsDropped(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	pkt := r.packetize(7, []core.KV{{Key: "x", Val: 5}})
	r.send(pkt)
	r.resend(pkt.Clone()) // lost-ACK retransmission
	if got := r.fetchAll(7); got["x"] != 5 {
		t.Fatalf("duplicate aggregation: %v", got)
	}
	// Both appearances must have been ACKed (the first ACK may be lost).
	acks := 0
	for _, f := range r.at1 {
		if f.Pkt.Type == wire.TypeAck {
			acks++
		}
	}
	if acks != 2 {
		t.Fatalf("acks = %d, want 2", acks)
	}
	if r.sw.Stats().DupPackets != 1 {
		t.Fatalf("DupPackets = %d", r.sw.Stats().DupPackets)
	}
}

func TestRetransmitPartialRestoresBitmap(t *testing.T) {
	// The §3.3 motivating example: [(a,1),(b,1)] with (a,1) aggregated and
	// (b,1) conflicted; the retransmission must carry only (b,1).
	cfg := smallConfig()
	cfg.SwapThreshold = 0
	r := newRig(t, cfg)
	r.mustAlloc(7, 1)
	k1, k2 := r.sameSlotKeys(shortKey)
	other := shortKey(0)
	for i := 1; r.layout.Place(other).FirstSlot == r.layout.Place(k1).FirstSlot; i++ {
		other = shortKey(i)
	}
	r.send(r.packetize(7, []core.KV{{Key: k1, Val: 1}}))
	// Packet with one aggregatable tuple (other) and one conflicting (k2).
	pkt := r.packetize(7, []core.KV{{Key: other, Val: 7}, {Key: k2, Val: 9}})
	orig := pkt.Clone()
	r.at2 = nil
	r.send(pkt)
	if len(r.at2) != 1 || r.at2[0].Pkt.LiveTuples() != 1 {
		t.Fatalf("first pass: receiver frames %+v", r.at2)
	}
	// Retransmit the ORIGINAL (both bits set) under the sequence number send
	// gave it: switch must restore the post-aggregation bitmap, not
	// re-aggregate.
	orig.Seq = pkt.Seq
	r.at2 = nil
	r.resend(orig)
	if len(r.at2) != 1 {
		t.Fatalf("retransmission not forwarded")
	}
	fwd := r.at2[0].Pkt
	slotK2 := r.layout.Place(k2).FirstSlot
	slotOther := r.layout.Place(other).FirstSlot
	if !fwd.Bitmap.Test(slotK2) || fwd.Bitmap.Test(slotOther) {
		t.Fatalf("restored bitmap wrong: %b", fwd.Bitmap)
	}
	if got := r.fetchAll(7); got[other] != 7 {
		t.Fatalf("tuple %q aggregated %d times", other, got[other]/7)
	}
}

func TestMediumKeyAggregation(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	r.send(r.packetize(7, []core.KV{{Key: "yours", Val: 2}}))
	r.send(r.packetize(7, []core.KV{{Key: "yours", Val: 3}}))
	got := r.fetchAll(7)
	if got["yours"] != 5 {
		t.Fatalf(`medium key sum = %d, want 5 (state %v)`, got["yours"], got)
	}
}

func TestMediumKeySharedPrefixNoFalseMatch(t *testing.T) {
	// A medium key must not be absorbed by another's aggregators in the same
	// slot group even though both share the first segment "your" (§3.2.3).
	cfg := smallConfig()
	cfg.SwapThreshold = 0
	r := newRig(t, cfg)
	r.mustAlloc(7, 1) // force same row for everything
	a, b := r.sameSlotKeys(func(i int) string { return fmt.Sprintf("your%04d", i) })
	r.send(r.packetize(7, []core.KV{{Key: a, Val: 1}}))
	r.at2 = nil
	r.send(r.packetize(7, []core.KV{{Key: b, Val: 100}}))
	got := r.fetchAll(7)
	if got[a] != 1 {
		t.Fatalf("key %q corrupted: %v", a, got)
	}
	if got[b] != 0 {
		t.Fatalf("key %q falsely matched: %v", b, got)
	}
	if len(r.at2) != 1 || r.at2[0].Pkt.LiveTuples() == 0 {
		t.Fatal("conflicting medium tuple not forwarded")
	}
}

func TestStalePacketDroppedSilently(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	// Advance max_seq far beyond the window.
	pkt := r.packetize(7, []core.KV{{Key: "a", Val: 1}})
	pkt.Seq = 10000
	r.resend(pkt)
	r.at1, r.at2 = nil, nil
	stale := r.packetize(7, []core.KV{{Key: "b", Val: 1}})
	stale.Seq = 10000 - uint32(r.sw.cfg.Window)
	r.resend(stale)
	if len(r.at1) != 0 || len(r.at2) != 0 {
		t.Fatal("stale packet produced traffic")
	}
	if r.sw.Stats().StaleDropped != 1 {
		t.Fatalf("StaleDropped = %d", r.sw.Stats().StaleDropped)
	}
	if got := r.fetchAll(7); got["b"] != 0 {
		t.Fatal("stale packet aggregated")
	}
}

func TestUnknownTaskForwardedUntouched(t *testing.T) {
	r := newRig(t, smallConfig())
	pkt := r.packetize(99, []core.KV{{Key: "a", Val: 1}})
	r.send(pkt)
	if len(r.at2) != 1 || r.at2[0].Pkt.LiveTuples() != 1 {
		t.Fatal("packet for region-less task not forwarded intact")
	}
	if len(r.at1) != 0 {
		t.Fatal("switch ACKed a region-less packet")
	}
}

func TestUnregisteredFlowForwarded(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	pkt := r.packetize(7, []core.KV{{Key: "a", Val: 1}})
	pkt.Flow = core.FlowKey{Host: 1, Channel: 5} // never registered
	r.send(pkt)
	if len(r.at2) != 1 {
		t.Fatal("unregistered flow's packet not forwarded")
	}
	if r.sw.Stats().UnregisteredFwd != 1 {
		t.Fatalf("UnregisteredFwd = %d", r.sw.Stats().UnregisteredFwd)
	}
}

func TestFinAndLongKeyForwardedWithDedup(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 32)
	fin := &wire.Packet{Type: wire.TypeFin, Task: 7, Flow: core.FlowKey{Host: 1, Channel: 0}, Seq: 0}
	r.resend(fin)
	lk := &wire.Packet{Type: wire.TypeLongKey, Task: 7, Flow: core.FlowKey{Host: 1, Channel: 0}, Seq: 1,
		Long: []wire.LongKV{{Key: "internationalization", Val: 4}}}
	r.resend(lk)
	if len(r.at2) != 2 {
		t.Fatalf("receiver frames = %d, want 2", len(r.at2))
	}
	// Retransmissions still forwarded (receiver dedups and re-acks).
	r.at2 = nil
	r.resend(fin.Clone())
	if len(r.at2) != 1 {
		t.Fatal("retransmitted FIN not forwarded")
	}
	if r.sw.Stats().DupPackets != 1 {
		t.Fatalf("DupPackets = %d", r.sw.Stats().DupPackets)
	}
}

func mustLayout(t *testing.T, cfg core.Config) *keyspace.Layout {
	t.Helper()
	l, err := keyspace.NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}
