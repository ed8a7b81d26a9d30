package hostd

import (
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
	// buckets queues tuples per logical unit u: units 0..shortSlots-1 are
	// short slots, then one per medium group.
	buckets  bucketArena
	nonEmpty int
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
		buckets: newBucketArena(units, maxBuf),
		maxBuf:  maxBuf,
		valLo:   -(int64(1) << (n - 1)),
		valHi:   int64(1)<<(n-1) - 1,
	}
}

// bucketArena holds every unit's bucket in one shared array: a bucket is a
// FIFO chained through the entries' next links, and a popped entry goes on a
// free list for the next push. The array grows only as far as the most tuples
// buffered at once, which the packetizer bounds by maxBuf, however the keys
// skew across units — one growing slice per unit would each keep its own
// peak.
type bucketArena struct {
	entries    []bucketEntry
	head, tail []int32 // per unit; head < 0 is an empty bucket
	free       int32   // first free entry, or -1
	limit      int     // the buffering bound: the array never grows past it
}

type bucketEntry struct {
	kv   core.KV
	next int32 // the next entry of the same bucket, or of the free list; -1 ends either
}

func newBucketArena(units, limit int) bucketArena {
	a := bucketArena{head: make([]int32, units), tail: make([]int32, units), free: -1, limit: limit}
	for u := range a.head {
		a.head[u] = -1
	}
	return a
}

func (a *bucketArena) units() int { return len(a.head) }

func (a *bucketArena) empty(u int) bool { return a.head[u] < 0 }

// push appends kv to unit u's bucket.
func (a *bucketArena) push(u int, kv core.KV) {
	i := a.free
	if i >= 0 {
		a.free = a.entries[i].next
	} else {
		if len(a.entries) == cap(a.entries) {
			grown := make([]bucketEntry, len(a.entries), min(max(2*cap(a.entries), 64), a.limit))
			copy(grown, a.entries)
			a.entries = grown
		}
		i = int32(len(a.entries))
		a.entries = append(a.entries, bucketEntry{})
	}
	a.entries[i] = bucketEntry{kv: kv, next: -1}
	if a.head[u] < 0 {
		a.head[u] = i
	} else {
		a.entries[a.tail[u]].next = i
	}
	a.tail[u] = i
}

// pop removes and returns the oldest tuple of unit u's bucket, which must not
// be empty. The freed entry is zeroed so it pins no key.
func (a *bucketArena) pop(u int) core.KV {
	i := a.head[u]
	e := &a.entries[i]
	kv := e.kv
	a.head[u] = e.next
	*e = bucketEntry{next: a.free}
	a.free = i
	return kv
}

// pull moves tuples from the stream into buckets until a packet can be
// emitted, the stream ends, or no tuple is due with nothing buffered.
func (pz *packetizer) pull() {
	pz.flush = false
	for !pz.eof {
		if pz.nonEmpty == pz.buckets.units() && pz.nonEmpty > 0 {
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
		unit, ok := pz.unitOf(kv)
		if !ok {
			pz.longQ.push(wire.LongKV{Key: kv.Key, Val: kv.Val})
			if pz.longQ.len() >= wire.MaxLongPerPacket {
				return
			}
			continue
		}
		if pz.buckets.empty(unit) {
			pz.nonEmpty++
		}
		pz.buckets.push(unit, kv)
		pz.buffered++
		if pz.buffered >= pz.maxBuf {
			return // buffering bound: emit with blank slots
		}
	}
}

// unitOf returns the logical unit whose bucket kv queues in, or false when kv
// takes the long-key bypass: a long key, a key outside the partition's band,
// or a value that exceeds the aggregator vPart.
func (pz *packetizer) unitOf(kv core.KV) (int, bool) {
	if kv.Val < pz.valLo || kv.Val > pz.valHi {
		return 0, false
	}
	class, firstSlot, _ := pz.layout.LocateIn(pz.part, kv.Key)
	switch class {
	case keyspace.Short:
		return firstSlot, true
	case keyspace.Medium:
		shortSlots := pz.layout.ShortSlots()
		return shortSlots + (firstSlot-shortSlots)/pz.cfg.MediumSegs, true
	}
	return 0, false
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
	if pz.longQ.len() >= wire.MaxLongPerPacket || ((pz.eof || pz.flush) && pz.nonEmpty == 0 && pz.longQ.len() > 0) {
		pkt := wire.NewLong(min(pz.longQ.len(), wire.MaxLongPerPacket))
		for i := range pkt.Long {
			pkt.Long[i] = pz.longQ.pop()
		}
		return pkt, len(pkt.Long), true
	}
	if pz.nonEmpty == 0 {
		return nil, 0, false
	}
	return pz.emitData()
}

// emitData builds one data packet taking at most one tuple per unit.
func (pz *packetizer) emitData() (*wire.Packet, int, bool) {
	pkt := wire.NewData(pz.cfg.NumAAs)
	tuples := 0
	for u := range pz.buckets.units() {
		if pz.buckets.empty(u) {
			continue
		}
		pz.fill(pkt, u, pz.buckets.pop(u))
		pz.buffered--
		if pz.buckets.empty(u) {
			pz.nonEmpty--
		}
		tuples++
	}
	return pkt, tuples, true
}

// fill packs kv into unit u's slots of pkt and marks them live.
//
// The unit index already encodes the placement — unit u < shortSlots IS the
// short slot, and a medium unit's group is u − shortSlots — so tuples are
// packed straight from the key string without re-classifying or re-hashing
// (pull's unitOf did that once when bucketing).
func (pz *packetizer) fill(pkt *wire.Packet, u int, kv core.KV) {
	cfg := &pz.cfg
	shortSlots := pz.layout.ShortSlots()
	if u < shortSlots {
		pkt.Slots[u] = wire.Slot{
			KPart: wire.PackKPart(kv.Key, cfg.KPartBytes),
			Val:   kv.Val,
		}
		pkt.Bitmap = pkt.Bitmap.Set(u)
		return
	}
	first := shortSlots + (u-shortSlots)*cfg.MediumSegs
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
