package window

// HostDedup is the host receiver's receive window. Unlike the switch, a
// host receiver does not necessarily observe every sequence number of a flow:
// a persistent data channel serves many tasks, and consecutive tasks may have
// different receivers, so each receiver sees only a subset of the flow's
// sequence space. The compact seen's parity alternation requires observing
// every sequence, so hosts instead keep, for each residue class mod W, the
// last sequence number seen in it — one W-slot ring, no map — guarded by the
// same max_seq staleness rule.
//
// Exactness: the sequence numbers that are not stale lie in (max_seq − W,
// max_seq], W consecutive numbers, so no two of them share a slot, and a
// slot's sequence is only ever replaced by one W or more apart — which makes
// one of the two stale. A non-stale sequence therefore finds itself in its
// slot if and only if it was seen before: the verdicts are those of an exact
// set of the in-window sequences.
//
// Safety of the stale verdict: the sender never has more than W packets in
// flight, so any packet that still needs processing satisfies
// seq > maxSeqGlobal − W ≥ maxSeqLocal − W and is never classified stale.
type HostDedup struct {
	guard *StaleGuard
	mask  uint32
	// last holds slot seq & mask: the sequence number last seen in that
	// residue class, with hostSeen set; zero while none has been.
	last []uint64
}

// hostSeen marks a ring slot that holds a sequence number.
const hostSeen = 1 << 32

// NewHostDedup returns host-side dedup state for window size w, a power of
// two (Config.Validate requires that of Window).
func NewHostDedup(w int) *HostDedup {
	if w <= 0 || w&(w-1) != 0 {
		panic("window: size must be a positive power of two")
	}
	return &HostDedup{guard: NewStaleGuard(w), mask: uint32(w - 1), last: make([]uint64, w)}
}

// Observe classifies seq and updates the state.
func (h *HostDedup) Observe(seq uint32) Verdict {
	if h.guard.Check(seq) {
		return Stale
	}
	slot := &h.last[seq&h.mask]
	if *slot == hostSeen|uint64(seq) {
		return Duplicate
	}
	*slot = hostSeen | uint64(seq)
	return Fresh
}
