package hostd

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/sim"
	"repro/internal/wire"
)

func testLayout(t *testing.T) *keyspace.Layout {
	t.Helper()
	l, err := keyspace.NewLayout(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// atEOF is the more of a source that is never "not due": the packetizer
// reaches it only once the stream is exhausted, and it reports EOF.
func atEOF() bool { return false }

// drainPackets collects every packet a packetizer emits.
func drainPackets(pz *packetizer) []*wire.Packet {
	var out []*wire.Packet
	for {
		pkt, _, ok := pz.next()
		if !ok {
			return out
		}
		out = append(out, pkt)
	}
}

// decodeAll reconstructs all tuples carried by a packet list.
func decodeAll(l *keyspace.Layout, pkts []*wire.Packet) []core.KV {
	cfg := l.Config()
	var out []core.KV
	for _, pkt := range pkts {
		switch pkt.Type {
		case wire.TypeLongKey:
			for _, lk := range pkt.Long {
				out = append(out, core.KV{Key: lk.Key, Val: lk.Val})
			}
		case wire.TypeData:
			shortSlots := l.ShortSlots()
			for i := 0; i < shortSlots; i++ {
				if pkt.Bitmap.Test(i) {
					out = append(out, core.KV{Key: string(l.AppendKey(nil, pkt.Slots[i:i+1])), Val: pkt.Slots[i].Val})
				}
			}
			for g := 0; g < cfg.MediumGroups; g++ {
				first := shortSlots + g*cfg.MediumSegs
				if !pkt.Bitmap.Test(first) {
					continue
				}
				group := pkt.Slots[first : first+cfg.MediumSegs]
				out = append(out, core.KV{Key: string(l.AppendKey(nil, group)), Val: group[len(group)-1].Val})
			}
		}
	}
	return out
}

func TestPacketizerLossless(t *testing.T) {
	// Every input tuple appears in exactly one packet, with its value.
	l := testLayout(t)
	rng := rand.New(rand.NewSource(1))
	var in []core.KV
	for i := 0; i < 5000; i++ {
		var key string
		switch rng.Intn(3) {
		case 0:
			key = fmt.Sprintf("s%d", rng.Intn(100))
		case 1:
			key = fmt.Sprintf("med%04d", rng.Intn(100))
		default:
			key = fmt.Sprintf("quite_long_key_%06d", rng.Intn(100))
		}
		in = append(in, core.KV{Key: key, Val: int64(rng.Intn(1000))})
	}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	out := decodeAll(l, drainPackets(pz))
	want := core.Reference(core.OpSum, in)
	got := core.Reference(core.OpSum, out)
	if len(out) != len(in) {
		t.Fatalf("tuples out = %d, want %d", len(out), len(in))
	}
	if !got.Equal(want) {
		t.Fatalf("packetizer corrupted stream: %s", got.Diff(want, 8))
	}
}

func TestPacketizerUniformFillsPackets(t *testing.T) {
	// Uniform short keys across many distinct values fill almost every
	// logical unit (Fig. 8(b) Uniform line).
	l := testLayout(t)
	rng := rand.New(rand.NewSource(2))
	var in []core.KV
	for i := 0; i < 20000; i++ {
		in = append(in, core.KV{Key: fmt.Sprintf("k%06d", rng.Intn(10000)), Val: 1})
	}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	pkts := drainPackets(pz)
	var live, dataPkts int
	for _, p := range pkts {
		if p.Type == wire.TypeData {
			live += p.LiveTuples()
			dataPkts++
		}
	}
	// Keys here are 7 bytes → medium: 8 groups × 2 slots each = 16 slots.
	avg := float64(live) / float64(dataPkts)
	if avg < 14.5 {
		t.Fatalf("average live slots per packet = %.2f, want near 16", avg)
	}
}

func TestPacketizerSkewLeavesBlanks(t *testing.T) {
	// A single ultra-hot key can fill only its own slot: packets must still
	// be emitted (bounded buffering), leaving other slots blank.
	l := testLayout(t)
	var in []core.KV
	for i := 0; i < 4*bufferPerUnit; i++ {
		in = append(in, core.KV{Key: "hot", Val: 1})
	}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	pkts := drainPackets(pz)
	if len(pkts) < 4 {
		t.Fatalf("packets = %d; bounded buffering not working", len(pkts))
	}
	total := 0
	for _, p := range pkts {
		if got := p.LiveTuples(); got > 1 {
			t.Fatalf("hot-key-only packet carries %d tuples", got)
		}
		total += p.LiveTuples()
	}
	if total != 4*bufferPerUnit {
		t.Fatalf("tuples = %d, want %d", total, 4*bufferPerUnit)
	}
}

func TestPacketizerLongKeysBypass(t *testing.T) {
	l := testLayout(t)
	in := []core.KV{
		{Key: "short", Val: 1}, // 5 bytes → medium actually
		{Key: "a_truly_long_key_beyond_groups", Val: 2},
		{Key: "k", Val: 3},
	}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	pkts := drainPackets(pz)
	var longPkts, dataPkts int
	for _, p := range pkts {
		switch p.Type {
		case wire.TypeLongKey:
			longPkts++
			if len(p.Long) != 1 || p.Long[0].Key != "a_truly_long_key_beyond_groups" {
				t.Fatalf("long packet contents: %+v", p.Long)
			}
		case wire.TypeData:
			dataPkts++
		}
	}
	if longPkts != 1 || dataPkts == 0 {
		t.Fatalf("long=%d data=%d", longPkts, dataPkts)
	}
}

func TestPacketizerHugeValuesBypass(t *testing.T) {
	l := testLayout(t)
	in := []core.KV{{Key: "k", Val: 1 << 40}}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	pkts := drainPackets(pz)
	if len(pkts) != 1 || pkts[0].Type != wire.TypeLongKey {
		t.Fatalf("oversized value not routed to long path: %+v", pkts)
	}
	if pkts[0].Long[0].Val != 1<<40 {
		t.Fatal("value corrupted")
	}
}

func TestPacketizerLongPacketMTU(t *testing.T) {
	l := testLayout(t)
	var in []core.KV
	for i := 0; i < 100; i++ {
		in = append(in, core.KV{Key: fmt.Sprintf("very_long_key_number_%08d", i), Val: 1})
	}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	for _, p := range drainPackets(pz) {
		if p.Type != wire.TypeLongKey {
			t.Fatalf("unexpected %v packet", p.Type)
		}
		if got := p.BufferBytes(4); got > wire.MTU {
			t.Fatalf("long packet %d bytes exceeds MTU", got)
		}
	}
}

func TestPacketizerEmptyStream(t *testing.T) {
	l := testLayout(t)
	pz := newPacketizer(l, core.SliceStream(nil), atEOF)
	if pkts := drainPackets(pz); len(pkts) != 0 {
		t.Fatalf("empty stream emitted %d packets", len(pkts))
	}
}

func TestPacketizerSameKeySameSlotAcrossPackets(t *testing.T) {
	// Single-key-single-spot: a key's slot must be identical in every
	// packet that carries it (§3.2.2).
	l := testLayout(t)
	var in []core.KV
	for i := 0; i < 1000; i++ {
		in = append(in, core.KV{Key: "anchor", Val: 1})
		in = append(in, core.KV{Key: fmt.Sprintf("f%d", i), Val: 1})
	}
	pz := newPacketizer(l, core.SliceStream(in), atEOF)
	slot := -1
	anchorKP := l.Place("anchor").KParts[0]
	for _, p := range drainPackets(pz) {
		if p.Type != wire.TypeData {
			continue
		}
		for i := range p.Slots {
			if p.Bitmap.Test(i) && p.Slots[i].KPart == anchorKP {
				if slot == -1 {
					slot = i
				} else if slot != i {
					t.Fatalf("key moved from slot %d to %d", slot, i)
				}
			}
		}
	}
	if slot == -1 {
		t.Fatal("anchor key never seen")
	}
}

// TestPacketizerZeroOffsetPacedSource is the one send path seen from the
// packetizer: a plain stream lifted to arrival offset zero and paced on the
// sim clock (what SubmitSend hands txLoop) is never "not due", so more is
// reached exactly once, at EOF — the send chain never stalls — and the
// packets are the ones the EOF-only source of the tests above emits.
func TestPacketizerZeroOffsetPacedSource(t *testing.T) {
	l := testLayout(t)
	rng := rand.New(rand.NewSource(3))
	var in []core.KV
	for i := 0; i < 3000; i++ {
		key := fmt.Sprintf("s%d", rng.Intn(200))
		if i%5 == 0 {
			key = fmt.Sprintf("quite_long_key_%06d", rng.Intn(50))
		}
		in = append(in, core.KV{Key: key, Val: int64(rng.Intn(1000))})
	}
	want := drainPackets(newPacketizer(l, core.SliceStream(in), atEOF))

	pc := pacer{sim: sim.New(1), ts: core.SliceStream(in).Timed()}
	mores := 0
	pz := newPacketizer(l, pc.next, func() bool { mores++; return pc.more() })
	got := drainPackets(pz)
	if mores != 1 || !pz.eof {
		t.Fatalf("more called %d times over %d zero-offset tuples, want once (at EOF); eof %v", mores, len(in), pz.eof)
	}
	// Clone strips the free-list bookkeeping, which depends on what the pool
	// happened to hand out, and keeps every field of the packet itself.
	for i := range got {
		got[i] = got[i].Clone()
	}
	for i := range want {
		want[i] = want[i].Clone()
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paced zero-offset source emitted %d packets that differ from the EOF-only source's %d", len(got), len(want))
	}
	if out := decodeAll(l, got); len(out) != len(in) || !core.Reference(core.OpSum, out).Equal(core.Reference(core.OpSum, in)) {
		t.Fatalf("%d of %d tuples survived packetization", len(out), len(in))
	}
}

// refPacketizer is the packetizer's emission policy over one plain slice of
// tuples per unit, with its own placement (unitOf) and its own packing, from
// the key string at emission (refFill), so it shares no code with the
// packetizer's packed-slot buckets: a change in which tuple leaves which
// bucket when, or in how a tuple is packed, shows as a difference.
type refPacketizer struct {
	layout             *keyspace.Layout
	part               keyspace.Partition
	stream             core.Stream
	more               func() bool
	maxBuf             int
	queues             [][]core.KV
	longQ              []wire.LongKV
	buffered, nonEmpty int
	eof, flush         bool
}

func newRefPacketizer(l *keyspace.Layout, part keyspace.Partition, stream core.Stream, more func() bool) *refPacketizer {
	units := l.LogicalUnits()
	return &refPacketizer{layout: l, part: part, stream: stream, more: more, maxBuf: bufferPerUnit * units, queues: make([][]core.KV, units)}
}

// unitOf returns the logical unit kv queues in, or false for the long-key
// bypass: a value past the vPart, a long key or one outside the band.
func (r *refPacketizer) unitOf(kv core.KV) (int, bool) {
	cfg := r.layout.Config()
	bound := int64(1) << (8*cfg.KPartBytes - 1)
	if kv.Val < -bound || kv.Val >= bound {
		return 0, false
	}
	switch class, first, _ := r.layout.LocateIn(r.part, kv.Key); class {
	case keyspace.Short:
		return first, true
	case keyspace.Medium:
		return r.layout.ShortSlots() + (first-r.layout.ShortSlots())/cfg.MediumSegs, true
	}
	return 0, false
}

// refFill packs kv into unit u's slots of pkt from the key string and marks
// them live: a short unit is its slot; a medium unit's group is cut into
// KPartBytes segments, the value in the group's last slot.
func refFill(l *keyspace.Layout, pkt *wire.Packet, u int, kv core.KV) {
	cfg := l.Config()
	if u < l.ShortSlots() {
		pkt.Slots[u] = wire.Slot{KPart: wire.PackKPart(kv.Key, cfg.KPartBytes), Val: kv.Val}
		pkt.Bitmap = pkt.Bitmap.Set(u)
		return
	}
	first := l.ShortSlots() + (u-l.ShortSlots())*cfg.MediumSegs
	for j := 0; j < cfg.MediumSegs; j++ {
		lo := j * cfg.KPartBytes
		hi := lo + cfg.KPartBytes
		var seg string
		if lo < len(kv.Key) {
			if hi > len(kv.Key) {
				hi = len(kv.Key)
			}
			seg = kv.Key[lo:hi]
		}
		slot := wire.Slot{KPart: wire.PackKPart(seg, cfg.KPartBytes)}
		if j == cfg.MediumSegs-1 {
			slot.Val = kv.Val
		}
		pkt.Slots[first+j] = slot
		pkt.Bitmap = pkt.Bitmap.Set(first + j)
	}
}

func (r *refPacketizer) pull() {
	r.flush = false
	for !r.eof && !(r.nonEmpty == len(r.queues) && r.nonEmpty > 0) {
		kv, ok := r.stream()
		if !ok {
			if r.flush = r.buffered > 0 || len(r.longQ) > 0; r.flush {
				return
			}
			r.eof = !r.more()
			return
		}
		u, ok := r.unitOf(kv)
		if !ok {
			if r.longQ = append(r.longQ, wire.LongKV{Key: kv.Key, Val: kv.Val}); len(r.longQ) >= wire.MaxLongPerPacket {
				return
			}
			continue
		}
		if len(r.queues[u]) == 0 {
			r.nonEmpty++
		}
		r.queues[u] = append(r.queues[u], kv)
		if r.buffered++; r.buffered >= r.maxBuf {
			return
		}
	}
}

func (r *refPacketizer) next() (*wire.Packet, int, bool) {
	r.pull()
	if len(r.longQ) >= wire.MaxLongPerPacket || ((r.eof || r.flush) && r.nonEmpty == 0 && len(r.longQ) > 0) {
		pkt := wire.NewLong(min(len(r.longQ), wire.MaxLongPerPacket))
		r.longQ = r.longQ[copy(pkt.Long, r.longQ):]
		return pkt, len(pkt.Long), true
	}
	if r.nonEmpty == 0 {
		return nil, 0, false
	}
	pkt, tuples := wire.NewData(r.layout.Config().NumAAs), 0
	for u, q := range r.queues {
		if len(q) > 0 {
			refFill(r.layout, pkt, u, q[0])
			r.queues[u], r.buffered, tuples = q[1:], r.buffered-1, tuples+1
			if len(q) == 1 {
				r.nonEmpty--
			}
		}
	}
	return pkt, tuples, true
}

// pacedSource is a deterministic paced stream: each step is a tuple or a lull
// (the next tuple not due yet), and more reports whether steps remain.
type pacedSource struct {
	steps []core.KV
	lull  []bool
	i     int
}

func (s *pacedSource) stream() (core.KV, bool) {
	if s.i >= len(s.steps) {
		return core.KV{}, false
	}
	s.i++
	return s.steps[s.i-1], !s.lull[s.i-1]
}

func (s *pacedSource) more() bool { return s.i < len(s.steps) }

// chunksInUse counts the chunks the packetizer's buckets hold, checking that
// no slot already read is left behind: none on a bucket's head chunk before
// its read position, and none on the free list's first free chunks — which,
// the list being LIFO, include every chunk the last packet drained (a tuple
// of the layouts below spans at most two chunks).
func chunksInUse(t *testing.T, b *slotBuckets, free int) int {
	t.Helper()
	n := 0
	for u, q := range b.q {
		for c := q.head; c != nil; c = c.next {
			n++
		}
		for i := 0; q.head != nil && i < q.rd; i++ {
			if s := q.head.slots[i]; s != (wire.Slot{}) {
				t.Fatalf("unit %d: slot %d read off its head chunk still holds %+v", u, i, s)
			}
		}
	}
	for c := b.free; c != nil && free > 0; c, free = c.next, free-1 {
		if c.slots != ([chunkSlots]wire.Slot{}) {
			t.Fatalf("a drained chunk holds stale slots %v", c.slots)
		}
	}
	return n
}

// TestPacketizerArenaIsPerUnitQueues holds the packed-slot buckets to the
// per-unit tuple queues they replaced: over seeded streams that mix short,
// medium and long keys, values outside the vPart and random lulls, with a hot
// key share that drives the buffer to its bound, both emit the same packets in
// the same order — on the default layout, with 4-slot medium groups, and with
// 3-slot groups (a tuple spans two chunks) under a tenant's band of the key
// space. The buckets never hold more than ceil(maxBuf·width/chunkSlots) +
// units chunks, width being the most slots a tuple takes, no chunk holds a
// slot that has been read, and fewer than maxSlab chunks are carved beyond
// the most ever in use at once.
func TestPacketizerArenaIsPerUnitQueues(t *testing.T) {
	segs4 := core.DefaultConfig()
	segs4.MediumGroups, segs4.MediumSegs = 4, 4
	segs3 := core.DefaultConfig()
	segs3.MediumGroups, segs3.MediumSegs = 6, 3
	parts, err := keyspace.PartitionsFor([]int{3, 1}, segs3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  core.Config
		part keyspace.Partition
	}{
		{"default", core.DefaultConfig(), keyspace.Partition{}},
		{"segs4", segs4, keyspace.Partition{}},
		{"segs3-tenant", segs3, parts[0]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := keyspace.NewLayout(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			width := max(1, tc.cfg.MediumSegs)
			reachedBound := false
			for seed := int64(1); seed <= 9; seed++ {
				rng := rand.New(rand.NewSource(seed))
				src := pacedSource{}
				hot := rng.Float64() // share of tuples on one hot short key
				lulls := []float64{0, 0.001, 0.05}[seed%3]
				for i := 0; i < 20000; i++ {
					var key string
					switch r := rng.Float64(); {
					case r < hot:
						key = "hot"
					case r < hot+(1-hot)*0.4:
						key = fmt.Sprintf("s%d", rng.Intn(300))
					case r < hot+(1-hot)*0.8:
						key = fmt.Sprintf("med%04d", rng.Intn(3000))
					default:
						key = fmt.Sprintf("quite_long_key_%06d", rng.Intn(500))
					}
					val := int64(rng.Intn(1000))
					if rng.Intn(200) == 0 {
						val = 1 << 40 // past a 4-byte vPart: the long-key path
					}
					src.steps = append(src.steps, core.KV{Key: key, Val: val})
					src.lull = append(src.lull, rng.Float64() < lulls)
				}
				refSrc := src
				// peak is the most chunks seen in use: off the free list at
				// every tuple the packetizer pulls, and after every packet.
				var pz *packetizer
				peak := 0
				stream := func() (core.KV, bool) {
					n := pz.buckets.carved
					for c := pz.buckets.free; c != nil; c = c.next {
						n--
					}
					peak = max(peak, n)
					return src.stream()
				}
				pz = newPacketizer(l, stream, src.more)
				pz.part = tc.part
				ref := newRefPacketizer(l, tc.part, refSrc.stream, refSrc.more)
				bound := (pz.maxBuf*width+chunkSlots-1)/chunkSlots + l.LogicalUnits()
				for n := 0; ; n++ {
					got, gotTuples, gotOK := pz.next()
					want, wantTuples, wantOK := ref.next()
					if gotOK != wantOK || gotTuples != wantTuples || pz.eof != ref.eof {
						t.Fatalf("seed %d packet %d: (%d tuples, %v, eof %v), per-unit queues give (%d, %v, eof %v)", seed, n, gotTuples, gotOK, pz.eof, wantTuples, wantOK, ref.eof)
					}
					chunks := chunksInUse(t, &pz.buckets, 2*l.LogicalUnits())
					if chunks > bound {
						t.Fatalf("seed %d packet %d: buckets hold %d chunks, bound %d", seed, n, chunks, bound)
					}
					peak = max(peak, chunks)
					if gotOK && got.Type == wire.TypeData {
						reachedBound = reachedBound || pz.buffered+gotTuples == pz.maxBuf
					}
					if !gotOK {
						if pz.eof {
							break
						}
						continue // a lull with nothing buffered: the sender waits, then asks again
					}
					if !reflect.DeepEqual(got.Clone(), want.Clone()) {
						t.Fatalf("seed %d packet %d differs:\n got %v bitmap %x slots %v long %v\nwant %v bitmap %x slots %v long %v",
							seed, n, got.Type, got.Bitmap, got.Slots, got.Long, want.Type, want.Bitmap, want.Slots, want.Long)
					}
				}
				if chunksInUse(t, &pz.buckets, pz.buckets.carved) != 0 || pz.occupied != 0 {
					t.Fatalf("seed %d: drained buckets still hold chunks (occupied %b)", seed, pz.occupied)
				}
				if pz.buckets.carved-peak >= maxSlab {
					t.Fatalf("seed %d: %d chunks carved for a peak of %d in use, a slab (%d) or more to spare", seed, pz.buckets.carved, peak, maxSlab)
				}
			}
			if !reachedBound {
				t.Error("no seed drove the buffer to its bound: raise the hot share")
			}
		})
	}
}
