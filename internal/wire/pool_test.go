package wire

import (
	"math/rand"
	"reflect"
	"testing"

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
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	// Dirty a packet, release it, and draw again until the pool hands the
	// poisoned storage back: the new packet must be fully zeroed.
	for i := 0; i < 100; i++ {
		p := NewPacket()
		if p.Type != 0 || p.Seq != 0 || p.Bitmap != 0 || p.Slots != nil ||
			p.Long != nil || p.FetchEntries != nil || p.Ctrl != nil {
			t.Fatalf("NewPacket returned dirty packet: %+v", p)
		}
		p.Type = PoisonType - 1
		p.Seq = 12345
		p.Slots = []Slot{{KPart: 7, Val: 7}}
		p.pooledSlots = true
		p.Release()
	}
}

func TestClonePooledDeepCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		p := randPacket(rng, 1+rng.Intn(32))
		p.Long = []LongKV{{Key: "averylongkey", Val: 42}}
		p.FetchEntries = []FetchEntry{{AA: 1, Row: 2, KPart: 3, Val: 4}}
		q := p.ClonePooled()
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
		q.Release()
	}
}

// TestReleaseReuseNeverAliasesLive is the property test for the free list:
// across randomized acquire/clone/release churn, a released-then-reused
// packet must never share its Slots backing array with any packet still
// live. Poison mode doubles the check — live packets must never read
// sentinel values.
func TestReleaseReuseNeverAliasesLive(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	rng := rand.New(rand.NewSource(42))

	type held struct {
		pkt  *Packet
		want []Slot // snapshot at acquire time; pkt is never mutated while held
	}
	var live []held

	check := func() {
		seen := make(map[*Slot]int) // &Slots[0] → index in live
		for i, h := range live {
			if len(h.pkt.Slots) == 0 {
				continue
			}
			first := &h.pkt.Slots[0]
			if j, dup := seen[first]; dup {
				t.Fatalf("live packets %d and %d share a Slots array", i, j)
			}
			seen[first] = i
			if !reflect.DeepEqual(h.pkt.Slots, h.want) {
				t.Fatalf("live packet mutated after a release elsewhere:\n got %+v\nwant %+v",
					h.pkt.Slots, h.want)
			}
			if h.pkt.Type == PoisonType || h.pkt.Slots[0].KPart == PoisonKPart {
				t.Fatalf("live packet reads poison: %+v", h.pkt)
			}
		}
	}

	for round := 0; round < 5000; round++ {
		switch op := rng.Intn(10); {
		case op < 4: // acquire a fresh pooled clone of a random packet
			src := randPacket(rng, 1+rng.Intn(24))
			q := src.ClonePooled()
			live = append(live, held{pkt: q, want: append([]Slot(nil), q.Slots...)})
		case op < 6: // clone an existing live packet (switch multicast path)
			if len(live) > 0 {
				h := live[rng.Intn(len(live))]
				q := h.pkt.ClonePooled()
				live = append(live, held{pkt: q, want: append([]Slot(nil), q.Slots...)})
			}
		case op < 9: // release a random live packet
			if len(live) > 0 {
				i := rng.Intn(len(live))
				live[i].pkt.Release()
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		default: // slot-less control packet round trip (ACK path)
			a := NewPacket()
			a.Type = TypeAck
			a.Release()
		}
		check()
	}
	for _, h := range live {
		h.pkt.Release()
	}
}

func TestReleasePoisonStampsStorage(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	p := NewPacket()
	p.Slots = make([]Slot, 8)
	p.pooledSlots = true
	for i := range p.Slots {
		p.Slots[i] = Slot{KPart: uint64(i) << 40, Val: int64(i)}
	}
	stale := p.Slots // simulated use-after-release reference
	p.Release()
	for i, s := range stale {
		if s.KPart != PoisonKPart || s.Val != PoisonVal {
			t.Fatalf("slot %d not poisoned after release: %+v", i, s)
		}
	}
}

func TestReleaseLeavesCallerSlotsAlone(t *testing.T) {
	SetPoolPoison(true)
	defer SetPoolPoison(false)
	// A packet whose Slots array the caller installed (pooledSlots=false)
	// must not have that array poisoned or recycled: the caller (window
	// retransmission buffer, test fixture) still owns it.
	mine := []Slot{{KPart: 1 << 50, Val: 9}}
	p := NewPacket()
	p.Slots = mine
	p.Release()
	if mine[0].KPart != 1<<50 || mine[0].Val != 9 {
		t.Fatalf("Release poisoned caller-owned slots: %+v", mine[0])
	}
}

func TestReleaseNilNoop(t *testing.T) {
	var p *Packet
	p.Release() // must not panic
}

func TestClonePooledPreservesScratchCapacity(t *testing.T) {
	// Releasing a pooled clone should retain its slot capacity for the next
	// clone drawn from the same pool entry (steady-state zero-alloc claim).
	rng := rand.New(rand.NewSource(7))
	src := randPacket(rng, 16)
	q := src.ClonePooled()
	first := &q.Slots[0]
	q.Release()
	// Drain singles until the pool hands the same struct back (sync.Pool
	// gives no ordering guarantee; bounded attempts keep the test honest
	// without flaking).
	for i := 0; i < 64; i++ {
		r := src.ClonePooled()
		if &r.Slots[0] == first {
			return // storage was recycled — the fast path works
		}
		defer r.Release()
	}
	t.Skip("pool never returned the recycled storage (valid but unobservable here)")
}

// TestNewAckEchoesItsRequest: an ACK names the request's type and echoes its
// task, flow and sequence number — and nothing else of it, whatever packet
// the free list handed out.
func TestNewAckEchoesItsRequest(t *testing.T) {
	flow := core.FlowKey{Host: 7, Channel: 2}
	for _, typ := range []Type{TypeData, TypeLongKey, TypeFin, TypeReplay, TypeSwap, TypeFetch, TypeCtrl} {
		req := &Packet{Type: typ, Task: 9, Flow: flow, Seq: 41, Epoch: 3, OrigSeq: 5, Bitmap: 0b101, Slots: make([]Slot, 4), FetchClear: true}
		ack := NewAck(req)
		want := Packet{Type: TypeAck, AckFor: typ, Task: 9, Flow: flow, Seq: 41}
		if ack.Type != want.Type || ack.AckFor != want.AckFor || ack.Task != want.Task || ack.Flow != want.Flow || ack.Seq != want.Seq {
			t.Fatalf("NewAck(%v) = %+v", typ, ack)
		}
		if ack.Epoch != 0 || ack.OrigSeq != 0 || ack.Bitmap != 0 || ack.Slots != nil || ack.FetchClear {
			t.Fatalf("NewAck(%v) carried request payload over: %+v", typ, ack)
		}
		ack.Release()
	}
}
