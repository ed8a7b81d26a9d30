// Package wire defines the ASK packet format and its byte-level encoding.
//
// The layout follows §3.2.1 and the overhead accounting of §5.3 footnote 9:
// every packet on the wire costs
//
//	78 bytes = 12 (inter-packet gap) + 7 (preamble) + 1 (SFD)
//	         + 14 (Ethernet) + 20 (IP) + 20 (ASK header) + 4 (CRC)
//
// plus its ASK payload. A data packet's payload is a fixed array of tuple
// slots, one per aggregator array (AA) on the switch; the i-th slot is
// processed by the i-th AA. The header carries an N-bit bitmap whose i-th
// bit indicates that the i-th slot holds a live tuple; the switch clears
// bits as it consumes tuples.
package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
)

// Byte-accounting constants (bytes).
const (
	// L1Overhead is the per-packet link-layer framing cost that never
	// appears in the packet buffer: inter-packet gap, preamble, start frame
	// delimiter, and CRC.
	L1Overhead = 12 + 7 + 1 + 4 // 24
	// EthIPBytes is the Ethernet plus IPv4 header size.
	EthIPBytes = 14 + 20
	// ASKHeaderBytes is the ASK transport header size.
	ASKHeaderBytes = 20
	// HeaderBytes is everything before the ASK payload in the packet buffer.
	HeaderBytes = EthIPBytes + ASKHeaderBytes // 54
	// PerPacketOverhead is the total non-payload cost of one packet on the
	// wire: 78 bytes, matching the paper's goodput model 8x/(8x+78).
	PerPacketOverhead = L1Overhead + HeaderBytes // 78
	// MTU bounds the packet buffer size (headers + payload, excluding L1).
	MTU = 1500
)

// Type discriminates ASK packets.
type Type uint8

const (
	// TypeData carries slotted key-value tuples for switch aggregation.
	TypeData Type = iota + 1
	// TypeAck acknowledges a data, long-key, or FIN packet back to the
	// sender; it carries the acknowledged sequence number.
	TypeAck
	// TypeLongKey carries variable-length keys too long for coalesced
	// placement; the switch forwards it untouched (§3.2.3).
	TypeLongKey
	// TypeFin signals that a sender's stream for a task is complete and
	// fully acknowledged (§3.1 Task Teardown).
	TypeFin
	// TypeSwap asks the switch to flip a task's shadow-copy indicator
	// (§3.4, Algorithm 1 Switch()).
	TypeSwap
	// TypeFetch asks the switch to read out (and optionally clear) a range
	// of aggregators from one copy of a task's region.
	TypeFetch
	// TypeFetchReply returns fetched aggregator contents to the receiver.
	TypeFetchReply
	// TypeCtrl is a control-channel message between host daemons (task
	// notify/ready); the switch forwards it untouched.
	TypeCtrl
	// TypeProbe is a host-to-switch health probe; the switch answers with a
	// TypeProbeReply carrying its current epoch (failover, §failure model).
	TypeProbe
	// TypeProbeReply answers a probe; header-only, epoch in the bitmap bytes.
	TypeProbeReply
	// TypeReplay is a bypass retransmission of a previously sent data packet
	// after a switch failure: it carries the original slots and liveness
	// bitmap plus OrigSeq, the original sequence number, so the receiver can
	// reconcile against tuples already merged before the failure. The switch
	// runs its reliability stages on it but never aggregates.
	TypeReplay
)

func (t Type) String() string {
	switch t {
	case TypeData:
		return "DATA"
	case TypeAck:
		return "ACK"
	case TypeLongKey:
		return "LONGKEY"
	case TypeFin:
		return "FIN"
	case TypeSwap:
		return "SWAP"
	case TypeFetch:
		return "FETCH"
	case TypeFetchReply:
		return "FETCHREPLY"
	case TypeCtrl:
		return "CTRL"
	case TypeProbe:
		return "PROBE"
	case TypeProbeReply:
		return "PROBEREPLY"
	case TypeReplay:
		return "REPLAY"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// Bitmap is the per-packet tuple-liveness bitmap (up to 64 slots).
type Bitmap uint64

// Set returns the bitmap with bit i set.
func (b Bitmap) Set(i int) Bitmap { return b | 1<<uint(i) }

// Clear returns the bitmap with bit i cleared.
func (b Bitmap) Clear(i int) Bitmap { return b &^ (1 << uint(i)) }

// Test reports whether bit i is set.
func (b Bitmap) Test(i int) bool { return b&(1<<uint(i)) != 0 }

// Count returns the number of set bits (live tuples).
func (b Bitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// Empty reports whether no bits are set.
func (b Bitmap) Empty() bool { return b == 0 }

// Slot is one tuple slot in a data packet payload. KPart holds up to 8 key
// bytes left-aligned (big-endian; shorter keys are zero-padded on the
// right), and Val holds the value. On the wire each occupies KPartBytes.
type Slot struct {
	KPart uint64
	Val   int64
}

// PackKPart packs up to n bytes of key material (n = KPartBytes) into a
// left-aligned big-endian uint64, zero-padded on the right. The segment may
// be a string or a byte slice, so hot paths pack directly from key strings
// without a []byte conversion per call.
func PackKPart[S ~string | ~[]byte](seg S, n int) uint64 {
	if len(seg) > n || n > 8 {
		panic(fmt.Sprintf("wire: segment of %d bytes does not fit kPart of %d", len(seg), n))
	}
	var v uint64
	for i := 0; i < n; i++ {
		v <<= 8
		if i < len(seg) {
			v |= uint64(seg[i])
		}
	}
	// Left-align within the 64-bit container so representations are
	// independent of n when comparing.
	return v << uint(8*(8-n))
}

// AppendKPart reverses PackKPart into caller-provided storage: it appends the
// n key bytes of v to dst with the right zero padding trimmed and returns the
// extended buffer, so a receiver reassembling keys per tuple can unpack into
// one stack buffer instead of allocating per segment. The result is exact for
// NUL-free keys (keys containing 0x00 take the long-key bypass; see
// internal/keyspace).
func AppendKPart(dst []byte, v uint64, n int) []byte {
	start := len(dst)
	for i := 0; i < n; i++ {
		dst = append(dst, byte(v>>uint(8*(7-i))))
	}
	end := len(dst)
	for end > start && dst[end-1] == 0 {
		end--
	}
	return dst[:end]
}

// LongKV is a variable-length tuple carried by a TypeLongKey packet.
type LongKV struct {
	Key string
	Val int64
}

// MaxLongPerPacket keeps long-key packets within the MTU for typical keys: the
// packetizer cuts a packet at this many tuples, and NewLong's pooled arrays
// hold this many.
const MaxLongPerPacket = 32

// MaxFetchEntriesPerReply keeps each fetch-reply packet within the MTU: the
// switch cuts a snapshot into chunks of this many entries, and
// NewFetchReply's pooled arrays hold this many.
const MaxFetchEntriesPerReply = (MTU - HeaderBytes - 4) / fetchEntryWireBytes

// FetchEntry is one aggregator read out by a fetch.
type FetchEntry struct {
	AA    int    // aggregator array index
	Row   int    // row within the copy
	KPart uint64 // stored key part (0 = blank)
	Val   int64
}

// Packet is the in-simulation representation of an ASK packet. The network
// model passes packets by pointer and charges WireSize bytes per hop; the
// byte codec in codec.go is the authoritative layout and is exercised by
// tests to keep WireSize honest.
type Packet struct {
	Type Type
	Task core.TaskID
	Flow core.FlowKey // originating sender host + data channel
	Seq  uint32
	// AckFor (TypeAck only) names the packet type being acknowledged, so a
	// host can route data/FIN ACKs to the sender window and swap ACKs to
	// the shadow-copy machinery.
	AckFor Type
	// Epoch is the switch incarnation number stamped on every non-data
	// packet the switch generates or forwards. It rides the otherwise-unused
	// bitmap bytes (h[13:17] — ACKs use h[12] for AckFor), so the 20-byte
	// ASK header and the 78-byte per-packet overhead are unchanged. Hosts
	// detect switch reboots by observing an epoch advance.
	Epoch uint32
	// OrigSeq (TypeReplay) is the sequence number the replayed payload was
	// originally sent under; the receiver uses (Flow, OrigSeq) as the
	// reconciliation identity so no tuple is double-counted across the
	// INA → bypass transition. For TypeFin it carries the FIN generation
	// (the sender's epoch when the FIN was cut, in the spare header bytes
	// h[17:19]) so a receiver can tell a stale pre-reboot FIN from one sent
	// after the sender finished replaying.
	OrigSeq uint32
	// Bitmap is meaningful for TypeData/TypeReplay: live-tuple bits.
	Bitmap Bitmap
	// Slots is the fixed tuple-slot array for TypeData/TypeReplay (len = NumAAs).
	Slots []Slot
	// Long carries tuples for TypeLongKey.
	Long []LongKV
	// Fetch fields. Fetch requests are idempotent reads identified by Seq;
	// replies echo Seq and carry chunk FetchChunk of FetchChunks.
	FetchCopy    int // which shadow copy to read (0/1)
	FetchClear   bool
	FetchChunk   uint16
	FetchChunks  uint16
	FetchEntries []FetchEntry // TypeFetchReply
	// Ctrl carries an opaque control message for TypeCtrl (not byte-encoded;
	// charged CtrlBytes on the wire).
	Ctrl any

	// Free-list bookkeeping (pool.go). pooledSlots, pooledLong and pooledFetch
	// mark Slots, Long and FetchEntries as owned by the free lists, so Release
	// recycles the array; slices installed by callers or decoded by the codec
	// stay GC-owned. scratch stashes retained slot capacity while the packet
	// rests in the pool, and rides along on a live packet that has no use for
	// it (an ACK, a long-key clone) so that it is not lost. The three flags
	// sit in the padding before scratch: Packet stays in its 176-byte size
	// class (TestPacketSizeClass).
	pooledSlots bool
	pooledLong  bool
	pooledFetch bool
	scratch     []Slot
}

// CtrlBytes is the nominal wire size charged for a control message payload.
const CtrlBytes = 64

// longKVWireBytes is the per-tuple cost inside a TypeLongKey payload:
// 2-byte length, key bytes, 8-byte value.
func longKVWireBytes(kv LongKV) int { return 2 + len(kv.Key) + 8 }

// fetchEntryWireBytes is the per-entry cost inside a TypeFetchReply payload:
// 1-byte AA, 4-byte row, 8-byte kPart, 8-byte value.
const fetchEntryWireBytes = 1 + 4 + 8 + 8

// PayloadBytes returns the ASK payload size in bytes, given the deployment's
// per-slot key-part width.
func (p *Packet) PayloadBytes(kPartBytes int) int {
	switch p.Type {
	case TypeData:
		return len(p.Slots) * 2 * kPartBytes
	case TypeReplay:
		// OrigSeq plus the full original slot array.
		return 4 + len(p.Slots)*2*kPartBytes
	case TypeLongKey:
		n := 0
		for _, kv := range p.Long {
			n += longKVWireBytes(kv)
		}
		return n
	case TypeFetchReply:
		return 4 + len(p.FetchEntries)*fetchEntryWireBytes // chunk, chunks
	case TypeFetch:
		return 12 // copy, clear, row range
	case TypeCtrl:
		return CtrlBytes
	default: // ACK, FIN, SWAP, PROBE, PROBEREPLY: header-only
		return 0
	}
}

// BufferBytes returns the packet buffer size (headers + payload, no L1).
func (p *Packet) BufferBytes(kPartBytes int) int {
	return HeaderBytes + p.PayloadBytes(kPartBytes)
}

// WireBytes returns the total cost of the packet on the wire including the
// 24-byte L1 framing: PerPacketOverhead + payload.
func (p *Packet) WireBytes(kPartBytes int) int {
	return PerPacketOverhead + p.PayloadBytes(kPartBytes)
}

// LiveTuples returns the number of live tuples in a data packet.
func (p *Packet) LiveTuples() int { return p.Bitmap.Count() }

func (p *Packet) String() string {
	switch p.Type {
	case TypeData:
		return fmt.Sprintf("%s task=%d %s seq=%d live=%d", p.Type, p.Task, p.Flow, p.Seq, p.LiveTuples())
	case TypeReplay:
		return fmt.Sprintf("%s task=%d %s seq=%d orig=%d live=%d", p.Type, p.Task, p.Flow, p.Seq, p.OrigSeq, p.LiveTuples())
	default:
		return fmt.Sprintf("%s task=%d %s seq=%d", p.Type, p.Task, p.Flow, p.Seq)
	}
}

// Clone returns a deep copy of the packet with plain GC-owned storage. The
// hot delivery path uses ClonePooled (pool.go) instead; Clone remains for
// callers that keep the copy indefinitely (retransmission buffers, tests).
func (p *Packet) Clone() *Packet {
	q := *p
	q.pooledSlots, q.pooledLong, q.pooledFetch = false, false, false
	q.scratch = nil
	if p.Slots != nil {
		q.Slots = append([]Slot(nil), p.Slots...)
	}
	if p.Long != nil {
		q.Long = append([]LongKV(nil), p.Long...)
	}
	if p.FetchEntries != nil {
		q.FetchEntries = append([]FetchEntry(nil), p.FetchEntries...)
	}
	return &q
}

// headerLayout documents the 20-byte ASK header encoding used by the codec:
//
//	offset 0  : Type (1)
//	offset 1  : Channel (1)
//	offset 2-3: Host (2, big-endian)
//	offset 4-7: Task (4)
//	offset 8-11: Seq (4)
//	offset 12-19: Bitmap (8)
//
// For non-data types the bitmap field is repurposed: offset 12 carries
// AckFor (TypeAck), offsets 13-16 carry the switch Epoch, offsets 17-19 are
// reserved. Data/replay packets carry the liveness bitmap there; replay
// packets put OrigSeq in the first 4 payload bytes instead.
var _ = binary.BigEndian
