package wire

import (
	"sync"
	"sync/atomic"
)

// Packet free list.
//
// The delivery fast path used to deep-copy every frame (Packet struct + slot
// array) and let the garbage collector reclaim it after the receiver was
// done — tens of millions of short-lived objects per simulated second. The
// free list recycles both: NewPacket/ClonePooled draw from a sync.Pool, and
// receivers call Release at the point where they provably hold the last
// reference (switchd ingress after consumption, hostd after inline handling
// or processInbound).
//
// Ownership rules (see also netsim.Frame.Owned and DESIGN.md):
//
//   - Release requires exclusive ownership: no other live reference into the
//     packet or its Slots array may exist. Window retransmission buffers and
//     failover history therefore NEVER release — their packets are cloned at
//     link delivery instead.
//   - A pooled packet's Slots array is recycled with it (pooledSlots); slot
//     arrays installed by callers (struct literals, history aliases) are left
//     to the garbage collector, so releasing a packet can never free memory
//     the releaser did not allocate through the pool.
//   - Long, FetchEntries, and Ctrl are not pooled: Release drops the
//     references and the GC reclaims them. LongKey strings handed out of a
//     released packet stay valid (strings are immutable).
//
// Determinism: pooling cannot perturb simulation results. Every object is
// field-wise reset on reuse, so model code observes identical values no
// matter which physical allocation the pool hands out; scheduling order
// never depends on pool state.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// poolPoison, when set, makes Release stamp recognizable sentinel values
// over the packet and its pooled slot array before recycling. A reader
// holding a stale reference then sees PoisonType/PoisonKPart instead of
// plausible data, turning silent use-after-release aliasing into a loud,
// testable signal. Enabled by tests via SetPoolPoison.
var poolPoison atomic.Bool

// SetPoolPoison toggles use-after-release poisoning for the process-wide
// packet free list (debug/test mode; see poolPoison).
func SetPoolPoison(on bool) { poolPoison.Store(on) }

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
	q.scratch = nil
	q.pooledSlots = false
	if p.Slots != nil {
		n := len(p.Slots)
		if cap(scratch) >= n {
			q.Slots = scratch[:n]
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
