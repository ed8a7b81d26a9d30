// Package window implements ASK's reliability machinery for asynchronous
// aggregation (§3.3): the host sender's sliding window with fine-grained
// timeout retransmission, and the receive-window deduplication state. The
// switch's (kept in register arrays by internal/switchd) is the naïve 2W-bit
// seen array and the memory-compact W-bit seen built on atomic
// set_bit/clr_bitc, plus the max_seq stale-packet guard; the host
// receiver's is HostDedup. The PktState store for partially-aggregated
// packet replay (Eq. 9–10) exists only as internal/switchd's register array.
//
// Sequence numbers are 32-bit and compared with serial arithmetic, so
// persistent data channels may wrap; the window size W must be a power of
// two so the compact design's even/odd segment parity survives wraparound.
package window

// SeqLess reports whether a precedes b in serial (wraparound) order.
func SeqLess(a, b uint32) bool { return int32(a-b) < 0 }

// SeenUpdate is the per-bit compact receive-window update of Eq. 8: a single
// atomic instruction that records a packet's appearance, returns whether it
// was already observed, and simultaneously re-initializes the bit for the
// segment one window away.
//
// For a packet with sequence s, the caller derives r = s mod W (the bit
// index) and odd = (s/W) mod 2 (the segment parity) and applies the update
// to the r-th bit:
//
//   - even segment: set_bit — observed iff the bit was already 1, bit := 1
//     (cases 1 and 2);
//   - odd segment: clr_bitc — observed iff the bit was already 0, bit := 0
//     (cases 3 and 4).
//
// Setting on even segments leaves the bit prepared (1) for the following odd
// segment, whose "unobserved" sentinel is 1; clearing on odd segments leaves
// it prepared (0) for the next even segment.
func SeenUpdate(cur uint64, odd bool) (next uint64, observed bool) {
	if odd {
		return 0, cur == 0
	}
	return 1, cur == 1
}

// CompactSeen is the host-side realization of the W-bit compact receive
// window. The switch realizes the identical logic in a register array (one
// 1-bit entry per window slot); this struct exists so the host receiver can
// share the algorithm and so tests can check equivalence with NaiveSeen.
type CompactSeen struct {
	w    int
	bits []uint64
}

// NewCompactSeen returns a compact seen of window size w (a power of two)
// for a flow whose first sequence number is 0.
func NewCompactSeen(w int) *CompactSeen { return NewCompactSeenAt(w, 0) }

// NewCompactSeenAt returns a compact seen for a flow whose lowest sequence
// number is start. Each bit must begin "prepared" for the parity of the
// first segment that will touch it: bits at offsets >= start%W are first
// touched by start's segment, earlier offsets by the following segment.
// (ASK data channels start at 0, where this degenerates to all-zeros.)
func NewCompactSeenAt(w int, start uint32) *CompactSeen {
	if w <= 0 || w&(w-1) != 0 {
		panic("window: size must be a positive power of two")
	}
	c := &CompactSeen{w: w, bits: make([]uint64, w)}
	r0 := int(start) & (w - 1)
	odd0 := (start/uint32(w))&1 == 1
	prepared := func(odd bool) uint64 {
		// "Unobserved" sentinel: 0 for an even segment, 1 for an odd one.
		if odd {
			return 1
		}
		return 0
	}
	for r := range c.bits {
		if r >= r0 {
			c.bits[r] = prepared(odd0)
		} else {
			c.bits[r] = prepared(!odd0)
		}
	}
	return c
}

// Observe records seq and reports whether it had been observed before.
func (c *CompactSeen) Observe(seq uint32) (observed bool) {
	r := int(seq) & (c.w - 1)
	odd := (seq/uint32(c.w))&1 == 1
	c.bits[r], observed = SeenUpdate(c.bits[r], odd)
	return observed
}

// seenTagValid marks a TagSeen slot as written; it keeps sequence 0
// distinguishable from a never-touched slot.
const seenTagValid = uint64(1) << 32

// SeenTagUpdate is the per-slot update of the gap-tolerant seen used by
// non-first-hop switch tiers (hierarchical re-aggregation). The compact
// parity seen of Eq. 8 assumes the switch observes every sequence number of
// a flow, so segment parities alternate slot by slot; a spine fed only by
// the leaves' conflict residuals sees arbitrary gaps, and a slot whose next
// touch lands an even number of windows later would alias as a duplicate.
// TagSeen instead stores the full sequence number (plus a valid bit) in the
// slot: observed iff the stored tag equals this packet's. The stale guard
// makes the tag unambiguous — a packet that reaches the seen stage satisfies
// maxSeq − seq < W, so at most one live sequence maps to each slot.
//
// The cost is 33 bits per slot instead of 1: the memory-compactness of §3.3
// is a first-hop optimization that the re-aggregation tier gives back.
func SeenTagUpdate(cur uint64, seq uint32) (next uint64, observed bool) {
	tag := uint64(seq) | seenTagValid
	return tag, cur == tag
}

// TagSeen is the host-side reference realization of the gap-tolerant seen
// (the switch realizes the identical logic in a 33-bit register array).
type TagSeen struct {
	w    int
	tags []uint64
}

// NewTagSeen returns a gap-tolerant seen of window size w (a power of two).
func NewTagSeen(w int) *TagSeen {
	if w <= 0 || w&(w-1) != 0 {
		panic("window: size must be a positive power of two")
	}
	return &TagSeen{w: w, tags: make([]uint64, w)}
}

// Observe records seq and reports whether it had been observed before.
func (t *TagSeen) Observe(seq uint32) (observed bool) {
	r := int(seq) & (t.w - 1)
	t.tags[r], observed = SeenTagUpdate(t.tags[r], seq)
	return observed
}

// NaiveSeen is the straightforward 2W-bit receive window of Eq. 5–7: a
// circularly used bit array where each packet records its own appearance and
// clears the bit one window ahead for a future packet. It costs twice the
// memory of CompactSeen and exists as the reference implementation for the
// equivalence tests and the memory-ablation benchmark.
type NaiveSeen struct {
	w    int
	bits []bool
}

// NewNaiveSeen returns a naïve seen of window size w.
func NewNaiveSeen(w int) *NaiveSeen {
	if w <= 0 {
		panic("window: size must be positive")
	}
	return &NaiveSeen{w: w, bits: make([]bool, 2*w)}
}

// Observe records seq and reports whether it had been observed before.
func (n *NaiveSeen) Observe(seq uint32) (observed bool) {
	idx := int(seq % uint32(2*n.w)) // Eq. 5
	observed = n.bits[idx]
	n.bits[idx] = true                // Eq. 6
	n.bits[(idx+n.w)%(2*n.w)] = false // Eq. 7
	return observed
}

// Bits returns the backing storage size in bits.
func (n *NaiveSeen) Bits() int { return 2 * n.w }

// StaleGuard tracks max_seq and rejects packets older than the live window,
// the corner case of §3.3 where a very stale packet would falsely overwrite
// seen state: the live window is (max_seq − W, max_seq], and anything at or
// below max_seq − W is dropped before touching seen.
type StaleGuard struct {
	w       uint32
	started bool
	maxSeq  uint32
}

// NewStaleGuard returns a guard for window size w.
func NewStaleGuard(w int) *StaleGuard { return &StaleGuard{w: uint32(w)} }

// Check advances max_seq with seq and reports whether seq is stale. A stale
// packet must be dropped without updating seen.
func (g *StaleGuard) Check(seq uint32) (stale bool) {
	if !g.started {
		g.started = true
		g.maxSeq = seq
		return false
	}
	if SeqLess(g.maxSeq, seq) {
		g.maxSeq = seq
		return false
	}
	// stale iff seq <= maxSeq - W, i.e. maxSeq - seq >= W in serial space.
	return g.maxSeq-seq >= g.w
}

// Dedup combines the stale guard with the compact seen: the complete
// receive-window logic of a switch flow endpoint. The tests use it as the
// reference model of the switch's per-flow state; the host receiver uses
// HostDedup.
type Dedup struct {
	guard *StaleGuard
	seen  *CompactSeen
}

// NewDedup returns receive-window dedup state for window size w, for a flow
// whose first sequence number is 0.
func NewDedup(w int) *Dedup { return NewDedupAt(w, 0) }

// NewDedupAt returns dedup state for a flow whose lowest sequence is start.
func NewDedupAt(w int, start uint32) *Dedup {
	return &Dedup{guard: NewStaleGuard(w), seen: NewCompactSeenAt(w, start)}
}

// Verdict classifies an arriving packet.
type Verdict uint8

const (
	// Fresh means first appearance: process the packet.
	Fresh Verdict = iota
	// Duplicate means the packet was seen before: skip processing but
	// still acknowledge it (the original ACK may have been lost).
	Duplicate
	// Stale means the packet predates the live window: drop silently.
	Stale
)

func (v Verdict) String() string {
	switch v {
	case Fresh:
		return "fresh"
	case Duplicate:
		return "duplicate"
	case Stale:
		return "stale"
	default:
		return "invalid"
	}
}

// Observe classifies seq and updates the state.
func (d *Dedup) Observe(seq uint32) Verdict {
	if d.guard.Check(seq) {
		return Stale
	}
	if d.seen.Observe(seq) {
		return Duplicate
	}
	return Fresh
}
