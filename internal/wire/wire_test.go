package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestBitmapOps(t *testing.T) {
	var b Bitmap
	if !b.Empty() {
		t.Fatal("zero bitmap not empty")
	}
	b = b.Set(0).Set(5).Set(63)
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	for _, i := range []int{0, 5, 63} {
		if !b.Test(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if b.Test(4) {
		t.Fatal("bit 4 should be clear")
	}
	b = b.Clear(5)
	if b.Test(5) || b.Count() != 2 {
		t.Fatalf("after Clear(5): %064b", b)
	}
	// Clearing a clear bit is a no-op.
	if b.Clear(7) != b {
		t.Fatal("Clear of clear bit changed bitmap")
	}
}

func TestPackUnpackKPart(t *testing.T) {
	cases := []struct {
		seg string
		n   int
	}{
		{"a", 4}, {"ab", 4}, {"abc", 4}, {"abcd", 4},
		{"x", 8}, {"longkey!", 8}, {"", 4},
	}
	for _, c := range cases {
		v := PackKPart([]byte(c.seg), c.n)
		got := AppendKPart(nil, v, c.n)
		if string(got) != c.seg {
			t.Errorf("roundtrip(%q, n=%d) = %q", c.seg, c.n, got)
		}
	}
}

func TestPackKPartBlankIsZero(t *testing.T) {
	if PackKPart("", 4) != 0 {
		t.Fatal("empty segment should pack to the blank sentinel 0")
	}
}

func TestPackKPartDistinct(t *testing.T) {
	// Keys that differ only in trailing content must pack differently.
	a := PackKPart([]byte("ab"), 4)
	b := PackKPart([]byte("abc"), 4)
	if a == b {
		t.Fatal(`"ab" and "abc" packed identically`)
	}
}

func TestPackKPartTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized segment did not panic")
		}
	}()
	PackKPart([]byte("abcde"), 4)
}

func TestPackKPartQuick(t *testing.T) {
	// Property: roundtrip is exact for NUL-free segments without trailing
	// NULs of length <= n.
	f := func(raw []byte, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		seg := make([]byte, 0, n)
		for _, b := range raw {
			if b != 0 && len(seg) < n {
				seg = append(seg, b)
			}
		}
		v := PackKPart(seg, n)
		return string(AppendKPart(nil, v, n)) == string(seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func randomDataPacket(rng *rand.Rand, numSlots, kPartBytes int) *Packet {
	p := &Packet{
		Type: TypeData,
		Task: core.TaskID(rng.Uint32()),
		Flow: core.FlowKey{Host: core.HostID(rng.Intn(64)), Channel: core.ChannelID(rng.Intn(8))},
		Seq:  rng.Uint32(),
	}
	// Values must fit the width's signed range: 20 bits, fewer below 3 bytes.
	valBits := 20
	if 8*kPartBytes-1 < valBits {
		valBits = 8*kPartBytes - 1
	}
	p.Slots = make([]Slot, numSlots)
	for i := range p.Slots {
		if rng.Intn(3) == 0 {
			continue // blank slot
		}
		segLen := 1 + rng.Intn(kPartBytes)
		seg := make([]byte, segLen)
		for j := range seg {
			seg[j] = byte(1 + rng.Intn(255))
		}
		p.Slots[i] = Slot{
			KPart: PackKPart(seg, kPartBytes),
			Val:   int64(rng.Intn(1<<valBits)) - 1<<(valBits-1),
		}
		p.Bitmap = p.Bitmap.Set(i)
	}
	return p
}

// TestCodecDataRoundtrip covers every width core.Config.Validate accepts,
// 1..4, through the codec's one slot loop per direction.
func TestCodecDataRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 1; k <= 4; k++ {
		c := NewCodec(k)
		for trial := 0; trial < 200; trial++ {
			p := randomDataPacket(rng, 32, k)
			buf, err := c.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != p.BufferBytes(k) {
				t.Fatalf("width %d: encoded %d bytes, BufferBytes says %d", k, len(buf), p.BufferBytes(k))
			}
			q, err := c.Unmarshal(buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p, q) {
				t.Fatalf("width %d: roundtrip mismatch:\n p=%+v\n q=%+v", k, p, q)
			}
		}
	}
	for _, k := range []int{0, 5, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCodec(%d) accepted a width Config.Validate rejects", k)
				}
			}()
			NewCodec(k)
		}()
	}
}

func TestCodecNegativeValues(t *testing.T) {
	c := Codec{KPartBytes: 4}
	p := &Packet{
		Type:   TypeData,
		Bitmap: Bitmap(0).Set(0),
		Slots:  []Slot{{KPart: PackKPart([]byte("k"), 4), Val: -12345}},
	}
	buf, err := c.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Slots[0].Val != -12345 {
		t.Fatalf("negative value corrupted: %d", q.Slots[0].Val)
	}
}

func TestCodecLongKeyRoundtrip(t *testing.T) {
	c := Codec{KPartBytes: 4}
	p := &Packet{
		Type: TypeLongKey,
		Task: 7,
		Flow: core.FlowKey{Host: 3, Channel: 1},
		Seq:  99,
		Long: []LongKV{
			{Key: "internationalization", Val: 42},
			{Key: "a-rather-long-key-indeed", Val: -7},
		},
	}
	buf, err := c.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.BufferBytes(4) {
		t.Fatalf("encoded %d bytes, BufferBytes says %d", len(buf), p.BufferBytes(4))
	}
	q, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("roundtrip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestCodecFetchReplyRoundtrip(t *testing.T) {
	c := Codec{KPartBytes: 4}
	p := &Packet{
		Type: TypeFetchReply,
		Task: 1,
		FetchEntries: []FetchEntry{
			{AA: 3, Row: 1000, KPart: PackKPart([]byte("ha"), 4), Val: 5},
			{AA: 31, Row: 0, KPart: 0, Val: 0},
		},
	}
	buf, err := c.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := c.Unmarshal(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("roundtrip mismatch:\n p=%+v\n q=%+v", p, q)
	}
}

func TestCodecHeaderOnlyTypes(t *testing.T) {
	c := Codec{KPartBytes: 4}
	for _, typ := range []Type{TypeAck, TypeFin, TypeSwap} {
		p := &Packet{Type: typ, Task: 5, Flow: core.FlowKey{Host: 2, Channel: 3}, Seq: 17}
		buf, err := c.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != HeaderBytes {
			t.Fatalf("%v encoded to %d bytes, want header-only %d", typ, len(buf), HeaderBytes)
		}
		q, err := c.Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("%v roundtrip mismatch", typ)
		}
	}
}

func TestWireBytesMatchesPaperModel(t *testing.T) {
	// The paper's goodput model: a packet with x 8-byte tuples costs
	// 8x + 78 bytes on the wire.
	for _, x := range []int{1, 16, 32, 64} {
		p := &Packet{Type: TypeData, Slots: make([]Slot, x)}
		if got, want := p.WireBytes(4), 8*x+78; got != want {
			t.Errorf("WireBytes(%d slots) = %d, want %d", x, got, want)
		}
	}
}

func TestCtrlNotMarshallable(t *testing.T) {
	c := Codec{KPartBytes: 4}
	if _, err := c.Marshal(&Packet{Type: TypeCtrl}); err == nil {
		t.Fatal("marshalling TypeCtrl should fail")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	c := Codec{KPartBytes: 4}
	if _, err := c.Unmarshal(make([]byte, 10)); err == nil {
		t.Error("short buffer should fail")
	}
	// Unknown type.
	buf := make([]byte, HeaderBytes)
	buf[EthIPBytes] = 0xEE
	if _, err := c.Unmarshal(buf); err == nil {
		t.Error("unknown type should fail")
	}
	// Data payload not a multiple of slot size.
	good, _ := c.Marshal(&Packet{Type: TypeData, Slots: make([]Slot, 2)})
	if _, err := c.Unmarshal(good[:len(good)-3]); err == nil {
		t.Error("ragged data payload should fail")
	}
}

func TestClone(t *testing.T) {
	p := &Packet{
		Type:   TypeData,
		Bitmap: Bitmap(0).Set(1),
		Slots:  []Slot{{}, {KPart: 1, Val: 2}},
	}
	q := p.Clone()
	q.Slots[1].Val = 99
	q.Bitmap = q.Bitmap.Clear(1)
	if p.Slots[1].Val != 2 || !p.Bitmap.Test(1) {
		t.Fatal("Clone is not deep")
	}
}
