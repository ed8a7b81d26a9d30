package wire

import (
	"sync"
	"sync/atomic"
)

// Packet free list — and the rules every free list on the per-packet path
// follows (frames: netsim.NewFrame / Frame.Release; window flights: a ring in
// window.Sender, no list at all).
//
// The delivery fast path used to deep-copy every frame (Packet struct + slot
// array) and let the garbage collector reclaim it after the receiver was
// done, and the sending side built a packet, a frame and a flight per
// transmission — tens of millions of short-lived objects per simulated
// second. Each of those objects is now recycled at the line where its owner
// already lets go of it:
//
//   - acquire: NewPacket (blank), NewData (blank, with a pool-owned slot
//     array: the packetizer's data packets), NewAck, ClonePooled (the link's
//     delivery clone, a daemon's request copy);
//   - release: Packet.Release, called by whoever holds the last reference —
//     switchd ingress after consuming a packet, hostd after inline handling
//     or processInbound (both through the owned netsim.Frame's Release), the
//     link on a frame it dropped, and the sending data channel when its
//     window flight is acknowledged (hostd's dataChannel.acked).
//
// Ownership rules (see also netsim.Frame.Owned and DESIGN.md "Performance
// engineering"):
//
//   - Release requires exclusive ownership: no other live reference into the
//     packet or its Slots array may exist. A sender keeps its packet for
//     retransmission while the flight is live — frames carrying it are sent
//     un-owned and the link clones at delivery, inside Link.Send — so when
//     the ACK retires the flight nothing else points at the packet. The
//     exception is failover: a data packet then passes to the task's replay
//     history and is never released (replays alias its Slots).
//   - Only what was drawn from a free list goes back to one. A pooled
//     packet's Slots array is recycled with it (pooledSlots); slot arrays
//     installed by callers (struct literals, history aliases) are left to
//     the garbage collector, so releasing a packet can never free memory the
//     releaser did not allocate through the pool. Frames follow the same rule
//     as a whole: a struct-literal netsim.Frame is never recycled.
//   - Long, FetchEntries, and Ctrl are not pooled: Release drops the
//     references and the GC reclaims them. LongKey strings handed out of a
//     released packet stay valid (strings are immutable).
//   - Nothing is filled ahead of use: lists and rings grow on first use, so
//     an idle deployment costs what it did before.
//
// What holds the rules is measurement, not a static check. A Release that
// goes missing is a count: ask's TestAllocGate (heap objects per tuple on the
// four contract shapes) and the layer pins — TestSenderCycleAllocatesNothing
// (window), TestHopAllocatesNothing (netsim), TestIngressAllocatesNothing
// (switchd), TestOneTuplePacketTxAllocs (hostd) — feed free-list frames down
// the delivered and the dropped paths and fail when a holder stops letting
// go. A Release that comes too early is a wrong aggregate under
// SetPoolPoison: ask's TestPoolPoison* run whole tasks that way.
//
// Determinism: pooling cannot perturb simulation results. Every object is
// field-wise reset on reuse, so model code observes identical values no
// matter which physical allocation the pool hands out; scheduling order
// never depends on pool state.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// poolPoison, when set, makes Release stamp recognizable sentinel values
// over the packet and its pooled slot array before recycling (and a released
// frame and a retired window flight slot likewise). A reader
// holding a stale reference then sees PoisonType/PoisonKPart instead of
// plausible data, turning silent use-after-release aliasing into a loud,
// testable signal. Enabled by tests via SetPoolPoison.
var poolPoison atomic.Bool

// SetPoolPoison toggles use-after-release poisoning for the process-wide
// free lists (debug/test mode; see poolPoison): the packets here, and the
// frames (netsim.Frame.Release) and retired flight slots (window.Sender.Ack)
// recycled beside them, which read the switch through PoolPoison.
func SetPoolPoison(on bool) { poolPoison.Store(on) }

// PoolPoison reports whether use-after-release poisoning is on.
func PoolPoison() bool { return poolPoison.Load() }

// Sentinel values stamped by Release under SetPoolPoison(true).
const (
	PoisonType  Type   = 0xEE
	PoisonSeq   uint32 = 0xDEADDEAD
	PoisonKPart uint64 = 0xDEADBEEFDEADBEEF
	PoisonVal   int64  = -0x6EADBEEF
)

// NewPacket returns a zeroed Packet from the free list. The caller owns it
// exclusively and should hand it back with Release when done (directly, or
// transitively through an owned netsim.Frame whose receiver releases it).
func NewPacket() *Packet {
	p := packetPool.Get().(*Packet)
	scratch := p.scratch
	*p = Packet{}
	p.scratch = scratch
	return p
}

// NewData returns a TypeData packet from the free list with n blank slots
// owned by the pool: the sender-side acquisition (hostd's packetizer). The
// sender keeps it for retransmission while its window flight is live — the
// link clones it at every delivery — and releases it when the flight is
// acknowledged, unless failover history retains it for replay.
func NewData(n int) *Packet {
	p := NewPacket()
	p.Type = TypeData
	if cap(p.scratch) >= n {
		p.Slots = p.scratch[:n]
		clear(p.Slots)
	} else {
		p.Slots = make([]Slot, n)
	}
	p.scratch = nil
	p.pooledSlots = true
	return p
}

// NewAck returns the acknowledgement of req, drawn from the free list: a
// TypeAck echoing req's task, flow and sequence number, with AckFor naming
// the type acknowledged. It is the one place an ACK is built — switch
// replies, host transport ACKs and the baselines all call it.
func NewAck(req *Packet) *Packet {
	ack := NewPacket()
	ack.Type, ack.AckFor = TypeAck, req.Type
	ack.Task, ack.Flow, ack.Seq = req.Task, req.Flow, req.Seq
	return ack
}

// ClonePooled returns a deep copy of p backed by the free list: the Packet
// struct and its Slots array are recycled storage when available. The link
// layer uses it to clone frames at delivery; the copy is exclusively owned
// by its receiver, which releases it. Long/FetchEntries are deep-copied with
// plain allocations (cold paths), Ctrl is shared (opaque immutable message).
func (p *Packet) ClonePooled() *Packet {
	q := packetPool.Get().(*Packet)
	scratch := q.scratch
	*q = *p
	q.scratch = scratch // a slot-less clone (long-key, FIN) keeps the stash for the next user
	q.pooledSlots = false
	if p.Slots != nil {
		n := len(p.Slots)
		if cap(scratch) >= n {
			q.Slots, q.scratch = scratch[:n], nil
		} else {
			q.Slots = make([]Slot, n)
		}
		copy(q.Slots, p.Slots)
		q.pooledSlots = true
	}
	if p.Long != nil {
		q.Long = append([]LongKV(nil), p.Long...)
	}
	if p.FetchEntries != nil {
		q.FetchEntries = append([]FetchEntry(nil), p.FetchEntries...)
	}
	return q
}

// Release hands p (and, if pool-owned, its Slots array) back to the free
// list. The caller must hold the only live reference; releasing a packet
// that something else still points into is a use-after-release bug —
// SetPoolPoison(true) makes such bugs observable. Release of nil is a no-op.
func (p *Packet) Release() {
	if p == nil {
		return
	}
	poison := poolPoison.Load()
	if poison && p.pooledSlots && p.Slots != nil {
		// Stamp the released array itself (not just whatever gets retained
		// below): a stale reference into it must read sentinels, loudly.
		full := p.Slots[:cap(p.Slots)]
		for i := range full {
			full[i] = Slot{KPart: PoisonKPart, Val: PoisonVal}
		}
	}
	// Retain the larger of the previously stashed scratch array and this
	// packet's own pool-owned slots, so slot capacity survives round trips
	// through slot-less packets (ACKs) drawn from the same pool.
	keep := p.scratch
	if p.pooledSlots && cap(p.Slots) > cap(keep) {
		keep = p.Slots[:0]
	}
	if poison && keep != nil {
		full := keep[:cap(keep)]
		for i := range full {
			full[i] = Slot{KPart: PoisonKPart, Val: PoisonVal}
		}
	}
	*p = Packet{}
	p.scratch = keep
	if poison {
		p.Type = PoisonType
		p.Seq = PoisonSeq
		p.Bitmap = Bitmap(PoisonKPart)
	}
	packetPool.Put(p)
}
