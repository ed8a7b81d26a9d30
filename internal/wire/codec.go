package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Codec marshals packets to and from the byte layout documented in wire.go.
// The simulation's fast path passes *Packet values directly, but the codec is
// the authoritative definition of the format: tests round-trip packets
// through it and assert that the encoded length matches BufferBytes, which
// keeps the analytical size accounting honest. TypeCtrl payloads are opaque
// simulation objects and cannot be marshalled.
//
// Construct codecs with NewCodec: KPartBytes validation happens once there
// instead of on every Marshal call (the corruption fault path encodes every
// damaged frame, so per-call validation was measurable). A zero or
// out-of-range width is a configuration bug, not a runtime condition.
type Codec struct {
	// KPartBytes is the per-slot key-part width (Config.KPartBytes).
	KPartBytes int
	// SkipVerify disables CRC32C verification in Decode. It exists solely as
	// a fault-injection hook (Config.DisableChecksumVerify) so the chaos soak
	// harness can prove it detects an integrity-broken build; production
	// paths never set it.
	SkipVerify bool
}

// NewCodec returns a Codec for the given key-part width, validating it once
// at construction. Widths outside 1..4 (the range core.Config.Validate
// accepts) are a programming error and panic.
func NewCodec(kPartBytes int) Codec {
	if kPartBytes <= 0 || kPartBytes > 4 {
		panic(fmt.Sprintf("wire: invalid KPartBytes %d", kPartBytes))
	}
	return Codec{KPartBytes: kPartBytes}
}

// WithSkipVerify returns a copy of the codec with the Decode verification
// hook set (see SkipVerify).
func (c Codec) WithSkipVerify(skip bool) Codec {
	c.SkipVerify = skip
	return c
}

// grow extends dst by n zeroed bytes and returns the extended slice plus the
// grown region. The zeroing matters when dst's capacity is being reused:
// several layouts leave reserved bytes untouched and rely on them reading 0.
func grow(dst []byte, n int) (all, region []byte) {
	if total := len(dst) + n; cap(dst) >= total {
		all = dst[:total]
	} else {
		all = append(dst, make([]byte, n)...)
	}
	region = all[len(dst):]
	for i := range region {
		region[i] = 0
	}
	return all, region
}

// Marshal encodes p into a fresh buffer of exactly p.BufferBytes(KPartBytes)
// bytes (headers + payload, no L1 framing). It is AppendMarshal with a
// capacity-exact fresh buffer.
func (c Codec) Marshal(p *Packet) ([]byte, error) {
	return c.AppendMarshal(make([]byte, 0, p.BufferBytes(c.KPartBytes)), p)
}

// AppendMarshal appends the encoding of p to dst and returns the extended
// slice. Hot callers (the per-link corruption scratch buffer, Encode) reuse
// dst's capacity across packets, so steady-state marshalling allocates
// nothing. The appended region is exactly p.BufferBytes(KPartBytes) bytes.
func (c Codec) AppendMarshal(dst []byte, p *Packet) ([]byte, error) {
	if p.Type == TypeCtrl {
		return nil, fmt.Errorf("wire: TypeCtrl payloads are not marshallable")
	}
	k := c.KPartBytes
	out, buf := grow(dst, p.BufferBytes(k))
	// Ethernet+IP headers are opaque padding in this model.
	h := buf[EthIPBytes:]
	h[0] = byte(p.Type)
	h[1] = byte(p.Flow.Channel)
	binary.BigEndian.PutUint16(h[2:], uint16(p.Flow.Host))
	binary.BigEndian.PutUint32(h[4:], uint32(p.Task))
	binary.BigEndian.PutUint32(h[8:], p.Seq)
	binary.BigEndian.PutUint64(h[12:], uint64(p.Bitmap))
	if p.Type != TypeData && p.Type != TypeReplay {
		// Only data-bearing packets use the bitmap field; everything else
		// repurposes it: offset 12 carries the acknowledged packet type
		// (TypeAck), offsets 13-16 the switch epoch.
		h[12] = 0
		if p.Type == TypeAck {
			h[12] = byte(p.AckFor)
		}
		binary.BigEndian.PutUint32(h[13:], p.Epoch)
		h[17], h[18], h[19] = 0, 0, 0
		if p.Type == TypeFin {
			// The FIN generation (the sender's epoch when the FIN was cut)
			// rides the spare bytes so FIN stays header-only.
			binary.BigEndian.PutUint16(h[17:], uint16(p.OrigSeq))
		}
	}
	body := buf[HeaderBytes:]
	switch p.Type {
	case TypeData, TypeReplay:
		off := 0
		if p.Type == TypeReplay {
			binary.BigEndian.PutUint32(body[0:], p.OrigSeq)
			off = 4
		}
		for _, s := range p.Slots {
			putUintN(body[off:], s.KPart>>uint(8*(8-k)), k)
			off += k
			putUintN(body[off:], uint64(s.Val)&mask(k), k)
			off += k
		}
	case TypeLongKey:
		off := 0
		for _, kv := range p.Long {
			if len(kv.Key) > 0xffff {
				return nil, fmt.Errorf("wire: long key of %d bytes exceeds length field", len(kv.Key))
			}
			binary.BigEndian.PutUint16(body[off:], uint16(len(kv.Key)))
			off += 2
			copy(body[off:], kv.Key)
			off += len(kv.Key)
			binary.BigEndian.PutUint64(body[off:], uint64(kv.Val))
			off += 8
		}
	case TypeFetch:
		binary.BigEndian.PutUint32(body[0:], uint32(p.FetchCopy))
		if p.FetchClear {
			body[4] = 1
		}
	case TypeFetchReply:
		binary.BigEndian.PutUint16(body[0:], p.FetchChunk)
		binary.BigEndian.PutUint16(body[2:], p.FetchChunks)
		off := 4
		for _, e := range p.FetchEntries {
			body[off] = byte(e.AA)
			binary.BigEndian.PutUint32(body[off+1:], uint32(e.Row))
			binary.BigEndian.PutUint64(body[off+5:], e.KPart)
			binary.BigEndian.PutUint64(body[off+13:], uint64(e.Val))
			off += fetchEntryWireBytes
		}
	}
	return out, nil
}

// Unmarshal decodes a buffer produced by Marshal. Payload containers are
// preallocated capacity-exact (the entry counts are implied by the buffer
// length), so decoding performs at most one allocation per container.
func (c Codec) Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < HeaderBytes {
		return nil, fmt.Errorf("wire: buffer of %d bytes shorter than header", len(buf))
	}
	h := buf[EthIPBytes:]
	p := &Packet{
		Type:   Type(h[0]),
		Flow:   core.FlowKey{Host: core.HostID(binary.BigEndian.Uint16(h[2:])), Channel: core.ChannelID(h[1])},
		Task:   core.TaskID(binary.BigEndian.Uint32(h[4:])),
		Seq:    binary.BigEndian.Uint32(h[8:]),
		Bitmap: Bitmap(binary.BigEndian.Uint64(h[12:])),
	}
	if p.Type != TypeData && p.Type != TypeReplay {
		if p.Type == TypeAck {
			p.AckFor = Type(h[12])
		}
		p.Epoch = binary.BigEndian.Uint32(h[13:])
		p.Bitmap = 0
		if p.Type == TypeFin {
			p.OrigSeq = uint32(binary.BigEndian.Uint16(h[17:]))
		}
	}
	body := buf[HeaderBytes:]
	switch p.Type {
	case TypeData, TypeReplay:
		off := 0
		if p.Type == TypeReplay {
			if len(body) < 4 {
				return nil, fmt.Errorf("wire: truncated replay payload")
			}
			p.OrigSeq = binary.BigEndian.Uint32(body[0:])
			off = 4
		}
		k := c.KPartBytes
		slotBytes := 2 * k
		if (len(body)-off)%slotBytes != 0 {
			return nil, fmt.Errorf("wire: data payload of %d bytes not a multiple of slot size %d", len(body)-off, slotBytes)
		}
		n := (len(body) - off) / slotBytes
		p.Slots = make([]Slot, n)
		for i := 0; i < n; i++ {
			p.Slots[i].KPart = getUintN(body[off:], k) << uint(8*(8-k))
			off += k
			p.Slots[i].Val = signExtend(getUintN(body[off:], k), k)
			off += k
		}
	case TypeLongKey:
		// Counting pre-pass so the container is allocated capacity-exact;
		// the per-tuple work below is dominated by the key string copy.
		count := 0
		for off := 0; off < len(body); {
			if off+2 > len(body) {
				return nil, fmt.Errorf("wire: truncated long-key length at %d", off)
			}
			kl := int(binary.BigEndian.Uint16(body[off:]))
			off += 2
			if off+kl+8 > len(body) {
				return nil, fmt.Errorf("wire: truncated long-key tuple at %d", off)
			}
			off += kl + 8
			count++
		}
		if count > 0 {
			p.Long = make([]LongKV, 0, count)
		}
		for off := 0; off < len(body); {
			kl := int(binary.BigEndian.Uint16(body[off:]))
			off += 2
			key := string(body[off : off+kl])
			off += kl
			val := int64(binary.BigEndian.Uint64(body[off:]))
			off += 8
			p.Long = append(p.Long, LongKV{Key: key, Val: val})
		}
	case TypeFetch:
		if len(body) < 12 {
			return nil, fmt.Errorf("wire: truncated fetch payload")
		}
		p.FetchCopy = int(binary.BigEndian.Uint32(body[0:]))
		p.FetchClear = body[4] == 1
	case TypeFetchReply:
		if len(body) < 4 || (len(body)-4)%fetchEntryWireBytes != 0 {
			return nil, fmt.Errorf("wire: fetch-reply payload of %d bytes malformed", len(body))
		}
		p.FetchChunk = binary.BigEndian.Uint16(body[0:])
		p.FetchChunks = binary.BigEndian.Uint16(body[2:])
		if n := (len(body) - 4) / fetchEntryWireBytes; n > 0 {
			p.FetchEntries = make([]FetchEntry, 0, n)
		}
		for off := 4; off < len(body); off += fetchEntryWireBytes {
			p.FetchEntries = append(p.FetchEntries, FetchEntry{
				AA:    int(body[off]),
				Row:   int(binary.BigEndian.Uint32(body[off+1:])),
				KPart: binary.BigEndian.Uint64(body[off+5:]),
				Val:   int64(binary.BigEndian.Uint64(body[off+13:])),
			})
		}
	case TypeAck, TypeFin, TypeSwap, TypeProbe, TypeProbeReply:
		// Header-only.
	default:
		return nil, fmt.Errorf("wire: unknown packet type %d", h[0])
	}
	return p, nil
}

func mask(n int) uint64 {
	if n >= 8 {
		return ^uint64(0)
	}
	return (1 << uint(8*n)) - 1
}

// signExtend interprets the low n bytes of v as a signed two's-complement
// integer.
func signExtend(v uint64, n int) int64 {
	shift := uint(64 - 8*n)
	return int64(v<<shift) >> shift
}

func putUintN(b []byte, v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func getUintN(b []byte, n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}
