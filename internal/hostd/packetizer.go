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
	// stream is a paced source (paceStream): it yields only tuples already
	// due, so !ok means "no tuple due yet", not EOF. stall blocks (on the sim
	// clock) until the next tuple is due and returns true, or returns false
	// at true EOF. pull consults it only with empty buffers; with tuples
	// queued it flushes a partial packet first, so a lull in arrivals never
	// holds aggregated data hostage (NIC-style idle flush). A source whose
	// arrivals are all at offset zero is never "not due": its stall is
	// reached once, at EOF.
	stream core.Stream
	stall  func() bool
	// flush marks that the last pull stopped on a not-yet-due tuple with
	// data buffered: next must emit what it has even though no bucket set
	// is full.
	flush bool
	// part restricts placement to a tenant's keyspace band: keys outside it
	// (or of a class the band does not cover) take the long-key bypass. The
	// zero value routes over the whole keyspace, exactly as before.
	part keyspace.Partition
	// buckets[u] queues tuples for logical unit u: units 0..shortSlots-1
	// are short slots, then one per medium group.
	buckets  []fifo[core.KV]
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

func newPacketizer(layout *keyspace.Layout, stream core.Stream, stall func() bool) *packetizer {
	n := uint(8 * layout.Config().KPartBytes)
	return &packetizer{
		layout:  layout,
		stream:  stream,
		stall:   stall,
		buckets: make([]fifo[core.KV], layout.LogicalUnits()),
		maxBuf:  bufferPerUnit * layout.LogicalUnits(),
		valLo:   -(int64(1) << (n - 1)),
		valHi:   int64(1)<<(n-1) - 1,
	}
}

// pull moves tuples from the stream into buckets until a packet can be
// emitted or the stream ends.
func (pz *packetizer) pull() {
	shortSlots := pz.layout.ShortSlots()
	pz.flush = false
	for !pz.eof {
		if pz.nonEmpty == len(pz.buckets) && len(pz.buckets) > 0 {
			return // full packet available
		}
		kv, ok := pz.stream()
		if !ok {
			// The next tuple is not due yet (or there is none). Flush
			// whatever is queued before waiting; only park with empty
			// buffers.
			if pz.buffered > 0 || pz.longQ.len() > 0 {
				pz.flush = true
				return
			}
			if !pz.stall() {
				pz.eof = true
				return
			}
			continue
		}
		if kv.Val < pz.valLo || kv.Val > pz.valHi {
			// Value exceeds the aggregator vPart: host-side path.
			pz.longQ.push(wire.LongKV{Key: kv.Key, Val: kv.Val})
			if pz.longQ.len() >= wire.MaxLongPerPacket {
				return
			}
			continue
		}
		class, firstSlot, _ := pz.layout.LocateIn(pz.part, kv.Key)
		var unit int
		switch class {
		case keyspace.Short:
			unit = firstSlot
		case keyspace.Medium:
			unit = shortSlots + (firstSlot-shortSlots)/pz.layout.Config().MediumSegs
		default:
			pz.longQ.push(wire.LongKV{Key: kv.Key, Val: kv.Val})
			if pz.longQ.len() >= wire.MaxLongPerPacket {
				return
			}
			continue
		}
		if pz.buckets[unit].len() == 0 {
			pz.nonEmpty++
		}
		pz.buckets[unit].push(kv)
		pz.buffered++
		if pz.buffered >= pz.maxBuf {
			return // buffering bound: emit with blank slots
		}
	}
}

// next returns the next packet to transmit. tuples is the number of logical
// tuples it carries (for CPU accounting); ok is false when the stream and
// all buffers are exhausted. The returned packet lacks Task/Flow/Seq, which
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
//
// The unit index already encodes the placement — unit u < shortSlots IS the
// short slot, and a medium unit's group is u − shortSlots — so tuples are
// packed straight from the key string without re-classifying or re-hashing
// (pull's Locate call did that once when bucketing).
func (pz *packetizer) emitData() (*wire.Packet, int, bool) {
	cfg := pz.layout.Config()
	shortSlots := pz.layout.ShortSlots()
	pkt := wire.NewData(cfg.NumAAs)
	tuples := 0
	for u := range pz.buckets {
		if pz.buckets[u].len() == 0 {
			continue
		}
		kv := pz.buckets[u].pop()
		pz.buffered--
		if pz.buckets[u].len() == 0 {
			pz.nonEmpty--
		}
		if u < shortSlots {
			pkt.Slots[u] = wire.Slot{
				KPart: wire.PackKPart(kv.Key, cfg.KPartBytes),
				Val:   kv.Val,
			}
			pkt.Bitmap = pkt.Bitmap.Set(u)
		} else {
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
		tuples++
	}
	return pkt, tuples, true
}
