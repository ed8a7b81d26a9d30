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
//     array: the packetizer's data packets), NewLong (with a pool-owned
//     long-key array: its long-key packets), NewAck, NewFetchReply (the
//     switch's snapshot chunks, entries in a pool-owned array), ClonePooled
//     (the link's delivery clone, a daemon's request copy — its payload
//     arrays from the same sources);
//   - release: Packet.Release, called by whoever holds the last reference —
//     switchd ingress after consuming a packet and hostd after inline
//     handling (both through the owned netsim.Frame's Release), the link on
//     a frame it dropped, hostd's receive queue at arrival (rxQueue.push
//     copies out what the channel thread will read and releases the frame,
//     packet included), and the sending data channel when its window flight
//     is acknowledged (hostd's dataChannel.acked).
//
// Ownership rules (see also netsim.Frame.Owned and DESIGN.md "Performance
// engineering"):
//
//   - Release requires exclusive ownership: no other live reference into the
//     packet or its payload arrays may exist. A sender keeps its packet for
//     retransmission while the flight is live — frames carrying it are sent
//     un-owned and the link clones at delivery, inside Link.Send — so when
//     the ACK retires the flight nothing else points at the packet. The
//     exception is failover: a data packet then passes to the task's replay
//     history and is never released (replays alias its Slots).
//   - Only what was drawn from a free list goes back to one. A pooled
//     packet's Slots, Long and FetchEntries arrays are recycled with it
//     (pooledSlots, pooledLong, pooledFetch); arrays installed by callers
//     (struct literals, history aliases) or decoded by the codec are left to
//     the garbage collector, and Clone's copies are never pooled, so
//     releasing a packet can never free memory the releaser did not allocate
//     through the pool. Frames follow the same rule as a whole: a
//     struct-literal netsim.Frame is never recycled.
//   - Long and FetchEntries arrays are fixed-size (MaxLongPerPacket,
//     MaxFetchEntriesPerReply) and sit in sync.Pools of their own, not on
//     the Packet: a second stashed slice would push every packet into the
//     next size class. Release clears a Long array's keys, so a resting array
//     pins no string; LongKey strings handed out of a released packet stay
//     valid (strings are immutable). A receiver copies what it keeps out of
//     a fetch reply (hostd's fetchReq.addChunk). Ctrl is not pooled: Release
//     drops the reference.
//   - Nothing is filled ahead of use: lists and rings grow on first use, so
//     an idle deployment costs what it did before.
//
// What holds the rules is measurement, not a static check. A Release that
// goes missing is a count: ask's TestAllocGate (heap objects per tuple on the
// four contract shapes) and the layer pins — TestSenderCycleAllocatesNothing
// (window), TestHopAllocatesNothing (netsim), TestIngressAllocatesNothing
// (switchd), TestOneTuplePacketTxAllocs, TestLongKeyPacketAllocatesNothing
// and TestSwapRoundAllocatesNothing (hostd) — feed free-list frames down the
// delivered and the dropped paths and fail when a holder stops letting go. A
// Release that comes too early is a wrong aggregate under SetPoolPoison:
// ask's TestPoolPoison* run whole tasks that way.
//
// Determinism: pooling cannot perturb simulation results. Every object is
// field-wise reset on reuse, so model code observes identical values no
// matter which physical allocation the pool hands out; scheduling order
// never depends on pool state.
var packetPool = sync.Pool{New: func() any { return new(Packet) }}

// The payload free lists: a pointer to an array goes into a sync.Pool without
// an allocation.
var (
	longPool  = sync.Pool{New: func() any { return new([MaxLongPerPacket]LongKV) }}
	fetchPool = sync.Pool{New: func() any { return new([MaxFetchEntriesPerReply]FetchEntry) }}
)

// poolPoison, when set, makes Release stamp recognizable sentinel values
// over the packet and its pooled arrays before recycling (and a released
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
	PoisonKey   string = "\xEEpoisoned long key"
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

// NewLong returns a TypeLongKey packet from the free list with n blank
// long-key tuples in a pool-owned array: the packetizer's long-key packets,
// which travel and are released like NewData's.
func NewLong(n int) *Packet {
	p := NewPacket()
	p.Type = TypeLongKey
	p.setLong(n)
	return p
}

// setLong installs n blank long-key tuples, in a pool-owned array when they
// fit one (nil for none).
func (p *Packet) setLong(n int) {
	switch {
	case n == 0:
		p.Long, p.pooledLong = nil, false
	case n > MaxLongPerPacket:
		p.Long, p.pooledLong = make([]LongKV, n), false
	default:
		p.Long, p.pooledLong = longPool.Get().(*[MaxLongPerPacket]LongKV)[:n], true
		clear(p.Long)
	}
}

// NewFetchReply returns chunk of chunks of the switch's answer to fetch
// request req, drawn from the free list: a TypeFetchReply echoing req's
// task, flow, sequence number and copy, carrying a copy of entries in a
// pool-owned array. The receiver copies out what it keeps and releases it.
func NewFetchReply(req *Packet, chunk, chunks int, entries []FetchEntry) *Packet {
	p := NewPacket()
	p.Type = TypeFetchReply
	p.Task, p.Flow, p.Seq, p.FetchCopy = req.Task, req.Flow, req.Seq, req.FetchCopy
	p.FetchChunk, p.FetchChunks = uint16(chunk), uint16(chunks)
	p.setFetch(len(entries))
	copy(p.FetchEntries, entries)
	return p
}

// setFetch installs n blank fetch entries, in a pool-owned array when they
// fit one (nil for none).
func (p *Packet) setFetch(n int) {
	switch {
	case n == 0:
		p.FetchEntries, p.pooledFetch = nil, false
	case n > MaxFetchEntriesPerReply:
		p.FetchEntries, p.pooledFetch = make([]FetchEntry, n), false
	default:
		p.FetchEntries, p.pooledFetch = fetchPool.Get().(*[MaxFetchEntriesPerReply]FetchEntry)[:n], true
		clear(p.FetchEntries)
	}
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
// by its receiver, which releases it. Long and FetchEntries are deep-copied
// into arrays from their free lists; Ctrl is shared (opaque immutable
// message).
func (p *Packet) ClonePooled() *Packet {
	q := packetPool.Get().(*Packet)
	scratch := q.scratch
	*q = *p
	q.scratch = scratch // a slot-less clone (long-key, FIN) keeps the stash for the next user
	q.pooledSlots, q.pooledLong, q.pooledFetch = false, false, false
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
		q.setLong(len(p.Long))
		copy(q.Long, p.Long)
	}
	if p.FetchEntries != nil {
		q.setFetch(len(p.FetchEntries))
		copy(q.FetchEntries, p.FetchEntries)
	}
	return q
}

// Release hands p (and, if pool-owned, its Slots, Long and FetchEntries
// arrays) back to the free lists. The caller must hold the only live
// reference; releasing a packet that something else still points into is a
// use-after-release bug — SetPoolPoison(true) makes such bugs observable.
// Release of nil is a no-op.
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
	if p.pooledLong {
		a := (*[MaxLongPerPacket]LongKV)(p.Long[:MaxLongPerPacket])
		if poison {
			for i := range a {
				a[i] = LongKV{Key: PoisonKey, Val: PoisonVal}
			}
		} else {
			clear(p.Long) // a resting array pins no key
		}
		longPool.Put(a)
	}
	if p.pooledFetch {
		a := (*[MaxFetchEntriesPerReply]FetchEntry)(p.FetchEntries[:MaxFetchEntriesPerReply])
		if poison {
			for i := range a {
				a[i] = FetchEntry{KPart: PoisonKPart, Val: PoisonVal}
			}
		}
		fetchPool.Put(a)
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
