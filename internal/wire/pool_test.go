package wire

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// randPacket builds a data packet with n slots filled from rng.
func randPacket(rng *rand.Rand, n int) *Packet {
	p := &Packet{
		Type:   TypeData,
		Task:   3,
		Seq:    rng.Uint32(),
		Bitmap: Bitmap(rng.Uint64()),
		Slots:  make([]Slot, n),
	}
	for i := range p.Slots {
		p.Slots[i] = Slot{KPart: rng.Uint64() | 1<<63, Val: int64(rng.Int31())}
	}
	return p
}

func TestNewPacketIsZeroed(t *testing.T) {
	l := &Pool{Poison: true}
	// Dirty a packet, release it, and draw again until the pool hands the
	// poisoned storage back: the new packet must be fully zeroed.
	for i := 0; i < 100; i++ {
		p := l.NewPacket()
		if p.Type != 0 || p.Seq != 0 || p.Bitmap != 0 || p.Slots != nil ||
			p.Long != nil || p.FetchEntries != nil || p.Ctrl != nil {
			t.Fatalf("NewPacket returned dirty packet: %+v", p)
		}
		p.Type = PoisonType - 1
		p.Seq = 12345
		p.Slots = []Slot{{KPart: 7, Val: 7}}
		p.pooledSlots = true
		l.Release(p)
	}
}

func TestClonePooledDeepCopies(t *testing.T) {
	l := new(Pool)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p := randPacket(rng, 1+rng.Intn(32))
		p.Long = []LongKV{{Key: "averylongkey", Val: 42}}
		p.FetchEntries = []FetchEntry{{AA: 1, Row: 2, KPart: 3, Val: 4}}
		q := l.Clone(p)
		if !reflect.DeepEqual(p.Slots, q.Slots) || p.Bitmap != q.Bitmap || p.Seq != q.Seq {
			t.Fatalf("clone differs from original")
		}
		if !reflect.DeepEqual(p.Long, q.Long) || !reflect.DeepEqual(p.FetchEntries, q.FetchEntries) {
			t.Fatalf("clone cold fields differ from original")
		}
		// Mutating the clone must not touch the original (no aliasing).
		q.Slots[0].KPart ^= 0xFF
		q.Long[0].Val++
		q.FetchEntries[0].Val++
		if p.Slots[0].KPart == q.Slots[0].KPart || p.Long[0].Val == q.Long[0].Val ||
			p.FetchEntries[0].Val == q.FetchEntries[0].Val {
			t.Fatalf("clone aliases original storage")
		}
		l.Release(q)
	}
}

// randLong builds a long-key packet from the free list with n tuples.
func randLong(l *Pool, rng *rand.Rand, n int) *Packet {
	p := l.NewLong(n)
	for i := range p.Long {
		p.Long[i] = LongKV{Key: fmt.Sprintf("a-rather-long-key-%d", rng.Intn(1000)), Val: int64(rng.Int31())}
	}
	return p
}

// sameSlice is reflect.DeepEqual on slices of comparable elements, at a
// fraction of its cost: equal elements, and nil exactly where the other is.
func sameSlice[E comparable](a, b []E) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestReleaseReuseNeverAliasesLive is the property test for the free list:
// across randomized acquire/clone/release churn, a released-then-reused
// packet must never share its Slots or its Long backing array with any packet
// still live. Poison mode doubles the check — live packets must never read
// sentinel values.
func TestReleaseReuseNeverAliasesLive(t *testing.T) {
	l := &Pool{Poison: true}
	rng := rand.New(rand.NewSource(42))

	type held struct {
		pkt      *Packet
		want     []Slot   // snapshot at acquire time; pkt is never mutated while held
		wantLong []LongKV // likewise
	}
	var live []held
	hold := func(q *Packet) {
		live = append(live, held{pkt: q, want: append([]Slot(nil), q.Slots...), wantLong: append([]LongKV(nil), q.Long...)})
	}

	check := func() {
		seen := make(map[unsafe.Pointer]int) // first element of Slots or Long → index in live
		for i, h := range live {
			for _, first := range []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(h.pkt.Slots)), unsafe.Pointer(unsafe.SliceData(h.pkt.Long))} {
				if first == nil {
					continue
				}
				if j, dup := seen[first]; dup {
					t.Fatalf("live packets %d and %d share a payload array", i, j)
				}
				seen[first] = i
			}
			if !sameSlice(h.pkt.Slots, h.want) || !sameSlice(h.pkt.Long, h.wantLong) {
				t.Fatalf("live packet mutated after a release elsewhere:\n got %+v %+v\nwant %+v %+v",
					h.pkt.Slots, h.pkt.Long, h.want, h.wantLong)
			}
			if h.pkt.Type == PoisonType || len(h.pkt.Slots) > 0 && h.pkt.Slots[0].KPart == PoisonKPart ||
				len(h.pkt.Long) > 0 && h.pkt.Long[0].Key == PoisonKey {
				t.Fatalf("live packet reads poison: %+v", h.pkt)
			}
		}
	}

	for round := 0; round < 5000; round++ {
		switch op := rng.Intn(10); {
		case op < 4: // acquire a fresh pooled clone of a random data packet, or a long-key packet
			if rng.Intn(3) == 0 {
				hold(randLong(l, rng, 1+rng.Intn(MaxLongPerPacket)))
				break
			}
			hold(l.Clone(randPacket(rng, 1+rng.Intn(24))))
		case op < 6: // clone an existing live packet (switch multicast path)
			if len(live) > 0 {
				hold(l.Clone(live[rng.Intn(len(live))].pkt))
			}
		case op < 9: // release a random live packet
			if len(live) > 0 {
				i := rng.Intn(len(live))
				l.Release(live[i].pkt)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		default: // slot-less control packet round trip (ACK path)
			a := l.NewPacket()
			a.Type = TypeAck
			l.Release(a)
		}
		check()
	}
	for _, h := range live {
		l.Release(h.pkt)
	}
}

func TestReleasePoisonStampsStorage(t *testing.T) {
	l := &Pool{Poison: true}
	p := l.NewPacket()
	p.Slots = make([]Slot, 8)
	p.pooledSlots = true
	for i := range p.Slots {
		p.Slots[i] = Slot{KPart: uint64(i) << 40, Val: int64(i)}
	}
	stale := p.Slots // simulated use-after-release reference
	l.Release(p)
	for i, s := range stale {
		if s.KPart != PoisonKPart || s.Val != PoisonVal {
			t.Fatalf("slot %d not poisoned after release: %+v", i, s)
		}
	}
}

func TestReleaseLeavesCallerSlotsAlone(t *testing.T) {
	l := &Pool{Poison: true}
	// A packet whose Slots array the caller installed (pooledSlots=false)
	// must not have that array poisoned or recycled: the caller (window
	// retransmission buffer, test fixture) still owns it.
	mine := []Slot{{KPart: 1 << 50, Val: 9}}
	p := l.NewPacket()
	p.Slots = mine
	l.Release(p)
	if mine[0].KPart != 1<<50 || mine[0].Val != 9 {
		t.Fatalf("Release poisoned caller-owned slots: %+v", mine[0])
	}
}

func TestReleaseNilNoop(t *testing.T) {
	var p *Packet
	p.Release() // must not panic
	new(Pool).Release(nil)
	(*Pool)(nil).Release(NewPacket())
}

// TestClonePooledPreservesScratchCapacity: a released clone's slot array
// rides on its resting packet, through a slot-less packet's life (an ACK),
// to the next clone drawn from the list (steady-state zero-alloc claim).
func TestClonePooledPreservesScratchCapacity(t *testing.T) {
	l := new(Pool)
	rng := rand.New(rand.NewSource(7))
	src := randPacket(rng, 16)
	q := l.Clone(src)
	first := &q.Slots[0]
	l.Release(q)
	ack := l.NewAck(src)
	if ack != q || ack.Slots != nil {
		t.Fatalf("the list did not hand back the released packet as a slot-less ACK")
	}
	l.Release(ack)
	if r := l.Clone(src); &r.Slots[0] != first {
		t.Fatal("the released clone's slot array was not reused by the next clone")
	}
}

// TestOutsideARunAllocates: with no run's lists, the package-level
// acquisitions allocate and Packet.Release leaves the packet to the collector,
// untouched; a nil Pool is the same.
func TestOutsideARunAllocates(t *testing.T) {
	p := NewPacket()
	p.Type, p.Seq = TypeFin, 7
	p.Release()
	if p.Type != TypeFin || p.Seq != 7 {
		t.Fatalf("Release outside a run changed the packet: %+v", p)
	}
	if q := NewPacket(); q == p {
		t.Fatal("NewPacket handed back a released packet outside a run")
	}
	src := randPacket(rand.New(rand.NewSource(9)), 4)
	var l *Pool
	if c := src.ClonePooled(); &c.Slots[0] == &src.Slots[0] || !reflect.DeepEqual(c.Slots, src.Slots) {
		t.Fatal("ClonePooled is not a deep copy")
	}
	if c := l.NewLong(3); len(c.Long) != 3 || !c.pooledLong {
		t.Fatalf("nil Pool NewLong = %+v", c)
	}
}

// TestNewAckEchoesItsRequest: an ACK names the request's type and echoes its
// task, flow and sequence number — and nothing else of it, whatever packet
// the free list handed out.
func TestNewAckEchoesItsRequest(t *testing.T) {
	l := new(Pool)
	flow := core.FlowKey{Host: 7, Channel: 2}
	for _, typ := range []Type{TypeData, TypeLongKey, TypeFin, TypeReplay, TypeSwap, TypeFetch, TypeCtrl} {
		req := &Packet{Type: typ, Task: 9, Flow: flow, Seq: 41, Epoch: 3, OrigSeq: 5, Bitmap: 0b101, Slots: make([]Slot, 4), FetchClear: true}
		ack := l.NewAck(req)
		want := Packet{Type: TypeAck, AckFor: typ, Task: 9, Flow: flow, Seq: 41}
		if ack.Type != want.Type || ack.AckFor != want.AckFor || ack.Task != want.Task || ack.Flow != want.Flow || ack.Seq != want.Seq {
			t.Fatalf("NewAck(%v) = %+v", typ, ack)
		}
		if ack.Epoch != 0 || ack.OrigSeq != 0 || ack.Bitmap != 0 || ack.Slots != nil || ack.FetchClear {
			t.Fatalf("NewAck(%v) carried request payload over: %+v", typ, ack)
		}
		l.Release(ack)
	}
}

// TestPacketSizeClass pins Packet at 176 bytes, a malloc size class of its
// own: free-list bookkeeping has to fit the padding. A prototype that stashed
// spare Long capacity in a second slice field, as scratch does for slots, grew
// Packet to 208 B — the next class — and alloc_bytes_per_tuple rose 1.1–1.6%
// on rack-absorb, rack-residue and fattree-serial, which carry no long keys.
func TestPacketSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size > 176 {
		t.Fatalf("Packet is %d bytes, over its 176-byte size class", size)
	}
}

// TestClonePooledDeepCopiesPooledLong: the link's clone of a sender's
// long-key packet gets its own array from the free list, equal and unaliased,
// and releasing it leaves the sender's packet intact.
func TestClonePooledDeepCopiesPooledLong(t *testing.T) {
	l := &Pool{Poison: true}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		p := randLong(l, rng, 1+rng.Intn(MaxLongPerPacket))
		want := append([]LongKV(nil), p.Long...)
		q := l.Clone(p)
		if !reflect.DeepEqual(q.Long, want) || !q.pooledLong {
			t.Fatalf("clone Long = %+v (pooled %v), want a pooled copy of %+v", q.Long, q.pooledLong, want)
		}
		if &q.Long[0] == &p.Long[0] {
			t.Fatal("clone aliases the original's Long array")
		}
		q.Long[0].Val++
		l.Release(q)
		if !reflect.DeepEqual(p.Long, want) {
			t.Fatalf("original changed by its clone's life: %+v, want %+v", p.Long, want)
		}
		l.Release(p)
	}
}

func TestReleasePoisonStampsPooledLong(t *testing.T) {
	l := &Pool{Poison: true}
	p := l.NewLong(5)
	for i := range p.Long {
		p.Long[i] = LongKV{Key: fmt.Sprint("key-", i), Val: int64(i)}
	}
	stale := p.Long[:cap(p.Long)] // simulated use-after-release reference
	l.Release(p)
	for i, kv := range stale {
		if kv.Key != PoisonKey || kv.Val != PoisonVal {
			t.Fatalf("long tuple %d not poisoned after release: %+v", i, kv)
		}
	}
}

// TestReleaseClearsPooledLongKeys: without poison, a released array keeps no
// key alive while it rests in the pool.
func TestReleaseClearsPooledLongKeys(t *testing.T) {
	l := new(Pool)
	p := l.NewLong(3)
	for i := range p.Long {
		p.Long[i] = LongKV{Key: fmt.Sprint("key-", i), Val: 1}
	}
	stale := p.Long
	l.Release(p)
	for i, kv := range stale {
		if kv != (LongKV{}) {
			t.Fatalf("released long tuple %d still holds %+v", i, kv)
		}
	}
}

// TestReleaseLeavesCallerLongAlone: a Long slice the caller installed or the
// codec decoded is not the pool's — Release neither stamps nor recycles it.
func TestReleaseLeavesCallerLongAlone(t *testing.T) {
	l := &Pool{Poison: true}
	mine := []LongKV{{Key: "caller-owned-key", Val: 9}}
	p := l.NewPacket()
	p.Type, p.Long = TypeLongKey, mine
	l.Release(p)
	if mine[0] != (LongKV{Key: "caller-owned-key", Val: 9}) {
		t.Fatalf("Release poisoned a caller-installed Long: %+v", mine[0])
	}

	c := NewCodec(4)
	buf, err := c.Encode(&Packet{Type: TypeLongKey, Task: 1, Long: []LongKV{{Key: "decoded-long-key", Val: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	decoded := d.Long
	l.Release(d)
	if decoded[0] != (LongKV{Key: "decoded-long-key", Val: 4}) {
		t.Fatalf("Release poisoned a decoded Long: %+v", decoded[0])
	}
}

// TestCloneOfPooledLongIsNotPooled: Clone copies a NewLong packet into plain
// storage, so releasing the clone can never hand back — or stamp — the
// original's array.
func TestCloneOfPooledLongIsNotPooled(t *testing.T) {
	l := &Pool{Poison: true}
	p := l.NewLong(2)
	p.Long[0], p.Long[1] = LongKV{Key: "first-long-key", Val: 1}, LongKV{Key: "second-long-key", Val: 2}
	want := append([]LongKV(nil), p.Long...)
	c := p.Clone()
	if c.pooledLong || &c.Long[0] == &p.Long[0] {
		t.Fatalf("Clone shares or claims the pooled array (pooled %v)", c.pooledLong)
	}
	l.Release(c)
	if !reflect.DeepEqual(p.Long, want) {
		t.Fatalf("releasing a Clone changed the original: %+v, want %+v", p.Long, want)
	}
	l.Release(p)
}

// TestFetchReplyPayloadIsPooled: NewFetchReply copies the snapshot into a
// pool-owned array (the switch reuses its scan buffer at once), the link's
// clone gets its own, and Release stamps it under poison; an empty snapshot
// carries no array at all.
func TestFetchReplyPayloadIsPooled(t *testing.T) {
	l := &Pool{Poison: true}
	req := &Packet{Type: TypeFetch, Task: 4, Seq: 17, FetchCopy: 1}
	entries := []FetchEntry{{AA: 1, Row: 2, KPart: 3, Val: 4}, {AA: 5, Row: 6, KPart: 7, Val: 8}}
	p := l.NewFetchReply(req, 1, 3, entries)
	if p.Type != TypeFetchReply || p.Task != 4 || p.Seq != 17 || p.FetchCopy != 1 || p.FetchChunk != 1 || p.FetchChunks != 3 {
		t.Fatalf("NewFetchReply header = %+v", p)
	}
	if !reflect.DeepEqual(p.FetchEntries, entries) || &p.FetchEntries[0] == &entries[0] || !p.pooledFetch {
		t.Fatalf("NewFetchReply entries = %+v (pooled %v), want a pooled copy of %+v", p.FetchEntries, p.pooledFetch, entries)
	}
	q := l.Clone(p)
	if &q.FetchEntries[0] == &p.FetchEntries[0] || !reflect.DeepEqual(q.FetchEntries, entries) {
		t.Fatal("clone aliases or differs from the reply's entries")
	}
	l.Release(q)
	stale := p.FetchEntries
	l.Release(p)
	for i, e := range stale {
		if e.KPart != PoisonKPart || e.Val != PoisonVal {
			t.Fatalf("entry %d not poisoned after release: %+v", i, e)
		}
	}
	if e := l.NewFetchReply(req, 0, 1, nil); e.FetchEntries != nil || e.pooledFetch {
		t.Fatalf("empty snapshot carries %+v", e.FetchEntries)
	}
}
