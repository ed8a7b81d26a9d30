package hostd

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/wire"
)

// packetizer turns a tuple stream into ASK packets following the ordered
// key-space partition (§3.2.2): every key always lands in its own slot
// (short) or coalesced group (medium), so one key is served by exactly one
// (set of) AA(s). Long keys — and values that do not fit an aggregator's
// vPart — are collected into long-key packets that bypass the switch.
//
// Emission policy: the stream is drained into per-unit buckets; a data
// packet is emitted once every unit has a tuple queued (a full packet) or
// when the total buffered tuples reach the buffering bound (under key skew
// a hot subspace fills the buffer while others stay empty, which is what
// leaves slots blank in Fig. 8(b)). The bound is on the total, not per
// bucket: a per-bucket cap would lock balanced workloads into a
// partial-packet regime, because the fullest bucket drains at most one
// tuple per packet and re-fills faster than the emptiest bucket.
type packetizer struct {
	layout *keyspace.Layout
	cfg    core.Config // the layout's, read per tuple
	// stream is a paced source (pacer): it yields only tuples already due,
	// so !ok means "no tuple due yet", not EOF. more reports whether a tuple
	// is still to come: false at true EOF. pull consults it only with empty
	// buffers, and then returns — next reports nothing to send, and the
	// caller waits for the next arrival; with tuples queued it flushes a
	// partial packet first, so a lull in arrivals never holds aggregated data
	// hostage (NIC-style idle flush). A source whose arrivals are all at
	// offset zero is never "not due": its more is reached once, at EOF.
	stream core.Stream
	more   func() bool
	// flush marks that the last pull stopped on a not-yet-due tuple with
	// data buffered: next must emit what it has even though no bucket set
	// is full.
	flush bool
	// part restricts placement to a tenant's keyspace band: keys outside it
	// (or of a class the band does not cover) take the long-key bypass. The
	// zero value routes over the whole keyspace, exactly as before.
	part keyspace.Partition
	// buckets queues tuples per logical unit u, packed into the slots they
	// ride in: units 0..shortSlots-1 are short slots, one slot a tuple, then
	// one unit per medium group, MediumSegs slots a tuple. occupied has bit u
	// set while unit u holds a tuple, and full is its value when every unit
	// does (units <= NumAAs <= 64).
	buckets  slotBuckets
	occupied uint64
	full     uint64
	buffered int
	longQ    fifo[wire.LongKV]
	eof      bool
	maxBuf   int
	valLo    int64
	valHi    int64
}

// bufferPerUnit sizes the total buffering bound: units × bufferPerUnit
// tuples may be held before a packet is emitted with blank slots.
const bufferPerUnit = 256

func newPacketizer(layout *keyspace.Layout, stream core.Stream, more func() bool) *packetizer {
	cfg := layout.Config()
	n := uint(8 * cfg.KPartBytes)
	units := layout.LogicalUnits()
	maxBuf := bufferPerUnit * units
	return &packetizer{
		layout:  layout,
		cfg:     cfg,
		stream:  stream,
		more:    more,
		buckets: newSlotBuckets(units, maxBuf, max(1, cfg.MediumSegs)),
		full:    1<<uint(units) - 1,
		maxBuf:  maxBuf,
		valLo:   -(int64(1) << (n - 1)),
		valHi:   int64(1)<<(n-1) - 1,
	}
}

// chunkSlots is the size of one bucket chunk in slots (16 bytes each).
const chunkSlots = 16

// firstSlab is the number of chunks in a packetizer's first slab, and
// maxSlab the most in any. Each slab after the first is twice the one
// before, up to maxSlab, short of the most chunks the buckets can hold at
// once. A slab is carved only when every chunk carved before is in use, so a
// packetizer holds fewer than maxSlab chunks more than it ever had in use at
// once, and a paced sender that buffers a few tuples at a time allocates a
// few chunks. 192 holds a batch sender's peak of 400–550 chunks in 7 or 8
// slabs.
const (
	firstSlab = 4
	maxSlab   = 192
)

// slotBuckets holds every unit's bucket of packed slots. A bucket is a FIFO of
// slots in a chain of fixed-size chunks; every chunk comes from one free list
// that all units share, which is refilled by carving a new slab. Slabs are
// never copied or moved, and a tuple's slots may span two chunks. A chunk goes
// back on the free list as soon as its last slot is read, and a unit with no
// slot queued holds no chunk.
type slotBuckets struct {
	q    []slotQueue // per unit
	free *slotChunk  // the free list, chained through next
	slab int         // chunks in the next slab
	// carved counts the chunks of every slab so far, and limit is the most
	// the buckets can hold at once: a unit's slots span at most two chunks
	// more than they fill (a partly read head, a partly filled tail), and
	// the buffering bound holds at most maxBuf tuples of up to width slots.
	// No slab is carved past limit.
	carved, limit int
}

type slotChunk struct {
	slots [chunkSlots]wire.Slot
	next  *slotChunk // the next chunk of the same bucket, or of the free list
}

// slotQueue is one unit's bucket: its slots run from slot rd of head to slot
// wr-1 of tail. head is nil when the bucket is empty.
type slotQueue struct {
	head, tail *slotChunk
	rd, wr     int
}

func newSlotBuckets(units, maxBuf, width int) slotBuckets {
	limit := (maxBuf*width+chunkSlots-1)/chunkSlots + 2*units
	return slotBuckets{q: make([]slotQueue, units), slab: firstSlab, limit: limit}
}

// take returns a zeroed chunk off the free list, carving a new slab when the
// list is empty.
func (b *slotBuckets) take() *slotChunk {
	if b.free == nil {
		n := min(b.slab, b.limit-b.carved)
		slab := make([]slotChunk, n)
		for i := range slab[:n-1] {
			slab[i].next = &slab[i+1]
		}
		b.free, b.slab, b.carved = &slab[0], min(2*b.slab, maxSlab), b.carved+n
	}
	c := b.free
	b.free, c.next = c.next, nil
	return c
}

// push appends s to unit u's bucket.
func (b *slotBuckets) push(u int, s wire.Slot) {
	q := &b.q[u]
	if q.head == nil {
		c := b.take()
		q.head, q.tail, q.rd, q.wr = c, c, 0, 0
	} else if q.wr == chunkSlots {
		c := b.take()
		q.tail.next, q.tail, q.wr = c, c, 0
	}
	q.tail.slots[q.wr] = s
	q.wr++
}

// pop moves the oldest len(dst) slots of unit u's bucket, which holds at least
// that many, into dst and reports whether the bucket is now empty. A read slot
// is zeroed, and a chunk goes back on the free list once its last slot is
// read, so a free chunk holds no stale slot.
func (b *slotBuckets) pop(u int, dst []wire.Slot) (empty bool) {
	q := &b.q[u]
	for i := range dst {
		c := q.head
		dst[i], c.slots[q.rd] = c.slots[q.rd], wire.Slot{}
		q.rd++
		if q.rd == chunkSlots || c == q.tail && q.rd == q.wr {
			q.head, q.rd = c.next, 0
			c.next, b.free = b.free, c
		}
	}
	return q.head == nil
}

// pull moves tuples from the stream into buckets until a packet can be
// emitted, the stream ends, or no tuple is due with nothing buffered.
func (pz *packetizer) pull() {
	pz.flush = false
	for !pz.eof {
		if pz.occupied == pz.full && pz.occupied != 0 {
			return // full packet available
		}
		kv, ok := pz.stream()
		if !ok {
			// The next tuple is not due yet (or there is none). Flush
			// whatever is queued before waiting; only wait with empty
			// buffers.
			if pz.buffered > 0 || pz.longQ.len() > 0 {
				pz.flush = true
				return
			}
			pz.eof = !pz.more()
			return
		}
		if !pz.queue(kv) {
			pz.longQ.push(wire.LongKV{Key: kv.Key, Val: kv.Val})
			if pz.longQ.len() >= wire.MaxLongPerPacket {
				return
			}
			continue
		}
		pz.buffered++
		if pz.buffered >= pz.maxBuf {
			return // buffering bound: emit with blank slots
		}
	}
}

// queue packs kv into the slot(s) it will ride in and appends them to its
// logical unit's bucket, or reports false when kv takes the long-key bypass:
// a long key, a key outside the partition's band, or a value that exceeds the
// aggregator vPart. The key is read here once, while it is hot: a short key
// is one slot, a medium key MediumSegs slots with the value in the last.
func (pz *packetizer) queue(kv core.KV) bool {
	if kv.Val < pz.valLo || kv.Val > pz.valHi {
		return false
	}
	class, first, _ := pz.layout.LocateIn(pz.part, kv.Key)
	kb := pz.cfg.KPartBytes
	u := first
	switch class {
	case keyspace.Short:
		pz.buckets.push(u, wire.Slot{KPart: wire.PackKPart(kv.Key, kb), Val: kv.Val})
	case keyspace.Medium:
		shortSlots, segs := pz.layout.ShortSlots(), pz.cfg.MediumSegs
		u = shortSlots + (first-shortSlots)/segs
		for j := range segs {
			lo := min(j*kb, len(kv.Key))
			slot := wire.Slot{KPart: wire.PackKPart(kv.Key[lo:min(lo+kb, len(kv.Key))], kb)}
			if j == segs-1 {
				slot.Val = kv.Val
			}
			pz.buckets.push(u, slot)
		}
	default:
		return false
	}
	pz.occupied |= 1 << uint(u)
	return true
}

// next returns the next packet to transmit. tuples is the number of logical
// tuples it carries (for CPU accounting); ok is false when there is nothing
// to send: the stream and all buffers are exhausted (pz.eof), or no tuple is
// due yet and nothing is buffered — the caller waits until the source's next
// arrival and calls next again. The returned packet lacks Task/Flow/Seq, which
// the data channel assigns; it comes from the wire free list, and the channel
// releases it when its window flight is acknowledged (dataChannel.acked).
func (pz *packetizer) next() (pkt *wire.Packet, tuples int, ok bool) {
	pz.pull()
	// Long-key packets flush when saturated, at EOF before final data
	// packets (order is irrelevant; both are reliable), or on an arrival
	// lull when only long keys are queued.
	if pz.longQ.len() >= wire.MaxLongPerPacket || ((pz.eof || pz.flush) && pz.occupied == 0 && pz.longQ.len() > 0) {
		pkt := wire.NewLong(min(pz.longQ.len(), wire.MaxLongPerPacket))
		for i := range pkt.Long {
			pkt.Long[i] = pz.longQ.pop()
		}
		return pkt, len(pkt.Long), true
	}
	if pz.occupied == 0 {
		return nil, 0, false
	}
	return pz.emitData()
}

// emitData builds one data packet taking at most one tuple per unit: it
// visits only the occupied units and copies each one's next tuple's slots
// into the unit's place in the packet. The unit index encodes the placement —
// unit u < shortSlots IS the short slot, and a medium unit's group is
// u − shortSlots — and the slots were packed when the tuple was queued.
func (pz *packetizer) emitData() (*wire.Packet, int, bool) {
	pkt := wire.NewData(pz.cfg.NumAAs)
	shortSlots, segs := pz.layout.ShortSlots(), pz.cfg.MediumSegs
	tuples := 0
	for occ := pz.occupied; occ != 0; occ &= occ - 1 {
		u := bits.TrailingZeros64(occ)
		first, width := u, 1
		if u >= shortSlots {
			first, width = shortSlots+(u-shortSlots)*segs, segs
		}
		if pz.buckets.pop(u, pkt.Slots[first:first+width]) {
			pz.occupied &^= 1 << uint(u)
		}
		pkt.Bitmap |= (1<<uint(width) - 1) << uint(first)
		tuples++
	}
	pz.buffered -= tuples
	return pkt, tuples, true
}
