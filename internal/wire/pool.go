package wire

// Packet free lists — and the rules every free list on the per-packet path
// follows (frames: netsim.Pool; window flights: a ring in window.Sender, no
// list at all).
//
// The delivery fast path used to deep-copy every frame (Packet struct + slot
// array) and let the garbage collector reclaim it after the receiver was
// done, and the sending side built a packet, a frame and a flight per
// transmission — tens of millions of short-lived objects per simulated
// second. Each of those objects is now recycled at the line where its owner
// already lets go of it, into free lists that belong to the run.
//
// Ownership of the lists: a Pool belongs to one simulation. netsim.PoolOf
// keeps one netsim.Pool per sim.Simulation (this Pool and the frames beside
// it) and hands it to every component built on that simulation — links,
// switches, daemons, senders — including components built on a bare sim.New.
// A simulation runs on one goroutine, so the lists are plain stacks with no
// locking. A sharded fat-tree's lanes run at once and a frame crosses lanes
// with its packet, so a sharded run keeps no lists (netsim.PoolOf).
//
//   - acquire: Pool.NewPacket (blank), NewData (blank, with a recyclable
//     slot array: the packetizer's data packets), NewLong (with a recyclable
//     long-key array: its long-key packets), NewAck, NewFetchReply (the
//     switch's snapshot chunks), Clone (the link's delivery clone, a daemon's
//     request copy — its payload arrays from the same lists);
//   - release: Pool.Release, called by whoever holds the last reference —
//     switchd ingress after consuming a packet and hostd after inline
//     handling (both through the owned netsim.Frame's Release, which releases
//     to the frame's own Pool), the link on a frame it dropped, hostd's
//     receive queue at arrival (rxQueue.push copies out what the channel
//     thread will read and releases the frame, packet included), and the
//     sending data channel when its window flight is acknowledged (hostd's
//     dataChannel.acked).
//
// Outside a run — a nil *Pool, and the package-level NewPacket,
// Packet.ClonePooled and Packet.Release that call it — the same acquisitions
// allocate and Release leaves the packet to the garbage collector.
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
//   - Only arrays an acquisition installed go back to a list. Such a
//     packet's Slots, Long and FetchEntries arrays are recycled with it
//     (pooledSlots, pooledLong, pooledFetch); arrays installed by callers
//     (struct literals, history aliases) or decoded by the codec are left to
//     the garbage collector, and Clone's copies are never recycled, so
//     releasing a packet can never free memory the releaser did not acquire.
//     Frames follow the same rule as a whole: a struct-literal netsim.Frame
//     is never recycled.
//   - Long and FetchEntries arrays are fixed-size (MaxLongPerPacket,
//     MaxFetchEntriesPerReply) and sit in lists of their own, not on the
//     Packet: a second stashed slice would push every packet into the next
//     size class, and the Packet has no pointer back to its Pool either.
//     Release clears a Long array's keys, so a resting array pins no string;
//     LongKey strings handed out of a released packet stay valid (strings are
//     immutable). A receiver copies what it keeps out of a fetch reply
//     (hostd's fetchReq.addChunk). Ctrl is not recycled: Release drops the
//     reference.
//   - Nothing is filled ahead of use: lists grow on first use, so an idle
//     deployment costs what it did before.
//
// What holds the rules is measurement, not a static check. A Release that
// goes missing is a count: ask's TestAllocGate (heap objects per tuple on the
// four contract shapes) and the layer pins — TestSenderCycleAllocatesNothing
// (window), TestHopAllocatesNothing (netsim), TestIngressAllocatesNothing
// (switchd), TestOneTuplePacketTxAllocs, TestLongKeyPacketAllocatesNothing
// and TestSwapRoundAllocatesNothing (hostd) — feed free-list frames down the
// delivered and the dropped paths and fail when a holder stops letting go. A
// Release that comes too early is a wrong aggregate under Pool.Poison: ask's
// TestPoolPoison* run whole tasks that way.
//
// Determinism: recycling cannot perturb simulation results. Every object is
// field-wise reset on reuse, so model code observes identical values no
// matter which physical allocation a list hands out; scheduling order never
// depends on list state.

// Pool is one run's packet free lists. The zero value is empty and ready.
type Pool struct {
	// Poison, when set, makes Release stamp recognizable sentinel values over
	// the packet and its recyclable arrays before recycling them (and the
	// run's released frames and retired window flight slots likewise). A
	// reader holding a stale reference then sees PoisonType/PoisonKPart
	// instead of plausible data, turning silent use-after-release aliasing
	// into a loud, testable signal. Tests set it on one run's lists; runs
	// beside it are untouched.
	Poison bool

	packets []*Packet
	longs   []*[MaxLongPerPacket]LongKV
	fetches []*[MaxFetchEntriesPerReply]FetchEntry
}

// Sentinel values stamped by Release under Pool.Poison.
const (
	PoisonType  Type   = 0xEE
	PoisonSeq   uint32 = 0xDEADDEAD
	PoisonKPart uint64 = 0xDEADBEEFDEADBEEF
	PoisonVal   int64  = -0x6EADBEEF
	PoisonKey   string = "\xEEpoisoned long key"
)

// pop takes the last element of a free list, or reports an empty one.
func pop[T any](list *[]*T) (*T, bool) {
	n := len(*list) - 1
	if n < 0 {
		return nil, false
	}
	v := (*list)[n]
	(*list)[n] = nil
	*list = (*list)[:n]
	return v, true
}

// packet returns a Packet struct off the list, as released (zeroed but for
// its stashed slot capacity and, poisoned, the sentinels), or a new one.
func (l *Pool) packet() *Packet {
	if l != nil {
		if p, ok := pop(&l.packets); ok {
			return p
		}
	}
	return new(Packet)
}

// NewPacket returns a zeroed Packet from the free list. The caller owns it
// exclusively and should hand it back with Release when done (directly, or
// transitively through an owned netsim.Frame whose receiver releases it).
func (l *Pool) NewPacket() *Packet {
	p := l.packet()
	scratch := p.scratch
	*p = Packet{}
	p.scratch = scratch
	return p
}

// NewPacket returns a zeroed, freshly allocated Packet: the acquisition of
// code outside a run.
func NewPacket() *Packet { return (*Pool)(nil).NewPacket() }

// NewData returns a TypeData packet from the free list with n blank slots
// recycled with it: the sender-side acquisition (hostd's packetizer). The
// sender keeps it for retransmission while its window flight is live — the
// link clones it at every delivery — and releases it when the flight is
// acknowledged, unless failover history retains it for replay.
func (l *Pool) NewData(n int) *Packet {
	p := l.NewPacket()
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
// long-key tuples in a recyclable array: the packetizer's long-key packets,
// which travel and are released like NewData's.
func (l *Pool) NewLong(n int) *Packet {
	p := l.NewPacket()
	p.Type = TypeLongKey
	l.setLong(p, n)
	return p
}

// setLong installs n blank long-key tuples in p, in a recyclable array when
// they fit one (nil for none).
func (l *Pool) setLong(p *Packet, n int) {
	switch {
	case n == 0:
		p.Long, p.pooledLong = nil, false
	case n > MaxLongPerPacket:
		p.Long, p.pooledLong = make([]LongKV, n), false
	default:
		var a *[MaxLongPerPacket]LongKV
		ok := false
		if l != nil {
			a, ok = pop(&l.longs)
		}
		if !ok {
			a = new([MaxLongPerPacket]LongKV)
		}
		p.Long, p.pooledLong = a[:n], true
		clear(p.Long)
	}
}

// NewFetchReply returns chunk of chunks of the switch's answer to fetch
// request req, drawn from the free list: a TypeFetchReply echoing req's
// task, flow, sequence number and copy, carrying a copy of entries in a
// recyclable array. The receiver copies out what it keeps and releases it.
func (l *Pool) NewFetchReply(req *Packet, chunk, chunks int, entries []FetchEntry) *Packet {
	p := l.NewPacket()
	p.Type = TypeFetchReply
	p.Task, p.Flow, p.Seq, p.FetchCopy = req.Task, req.Flow, req.Seq, req.FetchCopy
	p.FetchChunk, p.FetchChunks = uint16(chunk), uint16(chunks)
	l.setFetch(p, len(entries))
	copy(p.FetchEntries, entries)
	return p
}

// setFetch installs n blank fetch entries in p, in a recyclable array when
// they fit one (nil for none).
func (l *Pool) setFetch(p *Packet, n int) {
	switch {
	case n == 0:
		p.FetchEntries, p.pooledFetch = nil, false
	case n > MaxFetchEntriesPerReply:
		p.FetchEntries, p.pooledFetch = make([]FetchEntry, n), false
	default:
		var a *[MaxFetchEntriesPerReply]FetchEntry
		ok := false
		if l != nil {
			a, ok = pop(&l.fetches)
		}
		if !ok {
			a = new([MaxFetchEntriesPerReply]FetchEntry)
		}
		p.FetchEntries, p.pooledFetch = a[:n], true
		clear(p.FetchEntries)
	}
}

// NewAck returns the acknowledgement of req, drawn from the free list: a
// TypeAck echoing req's task, flow and sequence number, with AckFor naming
// the type acknowledged. It is the one place an ACK is built — switch
// replies, host transport ACKs and the baselines all call it.
func (l *Pool) NewAck(req *Packet) *Packet {
	ack := l.NewPacket()
	ack.Type, ack.AckFor = TypeAck, req.Type
	ack.Task, ack.Flow, ack.Seq = req.Task, req.Flow, req.Seq
	return ack
}

// Clone returns a deep copy of p backed by the free list: the Packet struct
// and its Slots array are recycled storage when available. The link layer
// uses it to clone frames at delivery; the copy is exclusively owned by its
// receiver, which releases it. Long and FetchEntries are deep-copied into
// arrays from their free lists; Ctrl is shared (opaque immutable message).
func (l *Pool) Clone(p *Packet) *Packet {
	q := l.packet()
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
		l.setLong(q, len(p.Long))
		copy(q.Long, p.Long)
	}
	if p.FetchEntries != nil {
		l.setFetch(q, len(p.FetchEntries))
		copy(q.FetchEntries, p.FetchEntries)
	}
	return q
}

// ClonePooled returns a freshly allocated deep copy of p: Clone outside a
// run.
func (p *Packet) ClonePooled() *Packet { return (*Pool)(nil).Clone(p) }

// Release hands p (and its recyclable Slots, Long and FetchEntries arrays)
// back to the free lists. The caller must hold the only live reference;
// releasing a packet that something else still points into is a
// use-after-release bug — Poison makes such bugs observable. Release of nil,
// or to a nil Pool, is a no-op.
func (l *Pool) Release(p *Packet) {
	if l == nil || p == nil {
		return
	}
	poison := l.Poison
	if poison && p.pooledSlots && p.Slots != nil {
		// Stamp the released array itself (not just whatever gets retained
		// below): a stale reference into it must read sentinels, loudly.
		full := p.Slots[:cap(p.Slots)]
		for i := range full {
			full[i] = Slot{KPart: PoisonKPart, Val: PoisonVal}
		}
	}
	// Retain the larger of the previously stashed scratch array and this
	// packet's own recyclable slots, so slot capacity survives round trips
	// through slot-less packets (ACKs) drawn from the same list.
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
		l.longs = append(l.longs, a)
	}
	if p.pooledFetch {
		a := (*[MaxFetchEntriesPerReply]FetchEntry)(p.FetchEntries[:MaxFetchEntriesPerReply])
		if poison {
			for i := range a {
				a[i] = FetchEntry{KPart: PoisonKPart, Val: PoisonVal}
			}
		}
		l.fetches = append(l.fetches, a)
	}
	*p = Packet{}
	p.scratch = keep
	if poison {
		p.Type = PoisonType
		p.Seq = PoisonSeq
		p.Bitmap = Bitmap(PoisonKPart)
	}
	l.packets = append(l.packets, p)
}

// Release leaves p to the garbage collector: Pool.Release outside a run.
func (p *Packet) Release() {}
