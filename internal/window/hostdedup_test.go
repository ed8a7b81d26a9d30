package window

import (
	"math/rand"
	"testing"
)

func TestHostDedupBasics(t *testing.T) {
	h := NewHostDedup(8)
	if v := h.Observe(100); v != Fresh {
		t.Fatalf("first = %v", v)
	}
	if v := h.Observe(100); v != Duplicate {
		t.Fatalf("repeat = %v", v)
	}
	if v := h.Observe(120); v != Fresh {
		t.Fatalf("jump = %v", v)
	}
	if v := h.Observe(100); v != Stale {
		t.Fatalf("old = %v", v)
	}
}

func TestHostDedupSubsetFlows(t *testing.T) {
	// A receiver that sees only a sparse subset of the flow's sequence
	// space (channels multiplex tasks across receivers) must still classify
	// correctly — this is where the compact seen cannot be used host-side.
	h := NewHostDedup(16)
	seqs := []uint32{5, 21, 37, 1000, 1003, 1001} // huge gaps, odd parities
	for _, s := range seqs[:3] {
		if v := h.Observe(s); s == 5 && v != Fresh {
			t.Fatalf("seq %d = %v", s, v)
		}
	}
	for _, s := range seqs[3:] {
		if v := h.Observe(s); v != Fresh {
			t.Fatalf("seq %d = %v, want fresh", s, v)
		}
	}
	if v := h.Observe(1003); v != Duplicate {
		t.Fatalf("1003 repeat = %v", v)
	}
}

func TestHostDedupMemoryBounded(t *testing.T) {
	h := NewHostDedup(64)
	for i := uint32(0); i < 100000; i++ {
		h.Observe(i)
	}
	if len(h.last) != 64 {
		t.Fatalf("dedup holds %d slots, window is 64", len(h.last))
	}
}

func TestHostDedupMemoryBoundedWithGaps(t *testing.T) {
	h := NewHostDedup(64)
	rng := rand.New(rand.NewSource(5))
	seq := uint32(0)
	for i := 0; i < 5000; i++ {
		seq += uint32(1 + rng.Intn(100000)) // large jumps
		h.Observe(seq)
	}
	if len(h.last) != 64 {
		t.Fatalf("dedup holds %d slots after gappy flow, window is 64", len(h.last))
	}
}

func TestHostDedupMatchesCompactOnFullFlows(t *testing.T) {
	// When the receiver does see every sequence (single-receiver flow), the
	// host dedup and the switch's compact dedup agree everywhere.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		w := 1 << (3 + rng.Intn(3))
		start := rng.Uint32()
		arrivals := windowedArrivalSeq(rng, w, 500, start)
		hd := NewHostDedup(w)
		cd := NewDedupAt(w, start)
		for i, seq := range arrivals {
			hv, cv := hd.Observe(seq), cd.Observe(seq)
			if hv != cv {
				t.Fatalf("trial %d arrival %d seq %d: host=%v compact=%v", trial, i, seq, hv, cv)
			}
		}
	}
}

func TestHostDedupWraparound(t *testing.T) {
	h := NewHostDedup(16)
	if v := h.Observe(0xfffffffa); v != Fresh {
		t.Fatalf("pre-wrap = %v", v)
	}
	if v := h.Observe(3); v != Fresh {
		t.Fatalf("post-wrap = %v", v)
	}
	if v := h.Observe(0xfffffffa); v != Duplicate {
		t.Fatalf("pre-wrap repeat = %v (still in window)", v)
	}
	if v := h.Observe(0xffffffe0); v != Stale {
		t.Fatalf("ancient = %v", v)
	}
}

func TestHostDedupValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewHostDedup(0) did not panic")
		}
	}()
	NewHostDedup(0)
}

// mapDedup is the exact-set host dedup the ring replaced: the sequences seen
// inside the live window in a map, pruned as the window moves. It is the
// reference of TestHostDedupMatchesMapSet.
type mapDedup struct {
	w      uint32
	guard  *StaleGuard
	inWin  map[uint32]struct{}
	pruned uint32 // all seqs <= pruned (serially) are evicted
	primed bool
}

func newMapDedup(w int) *mapDedup {
	return &mapDedup{w: uint32(w), guard: NewStaleGuard(w), inWin: make(map[uint32]struct{})}
}

func (h *mapDedup) Observe(seq uint32) Verdict {
	if h.guard.Check(seq) {
		return Stale
	}
	if _, dup := h.inWin[seq]; dup {
		return Duplicate
	}
	h.inWin[seq] = struct{}{}
	floor := h.guard.maxSeq - h.w // everything <= floor is stale now
	switch {
	case !h.primed:
		h.primed = true
	case floor-h.pruned > 2*h.w:
		for s := range h.inWin {
			if !SeqLess(floor, s) {
				delete(h.inWin, s)
			}
		}
	default:
		for SeqLess(h.pruned, floor) {
			h.pruned++
			delete(h.inWin, h.pruned)
		}
		return Fresh
	}
	h.pruned = floor
	return Fresh
}

// TestHostDedupMatchesMapSet holds the ring to the exact in-window set it
// replaced, verdict for verdict, over seeded streams of each shape a host
// receiver meets: a flow seen whole with duplicates and reordering, one seen
// only in part (the channel's other tasks went to other receivers), stale
// arrivals from far behind, and each of them across the 2^32 wrap.
func TestHostDedupMatchesMapSet(t *testing.T) {
	type shape struct {
		name string
		// next returns the arrival after one at seq, the flow's highest
		// sequence sent so far being max.
		next func(rng *rand.Rand, seq, max uint32, w int) uint32
	}
	shapes := []shape{
		{"whole-flow-dups", func(rng *rand.Rand, seq, max uint32, w int) uint32 {
			if rng.Intn(4) == 0 {
				return max - uint32(rng.Intn(w)) // a duplicate or a reordered one
			}
			return max + 1
		}},
		{"partial-flow", func(rng *rand.Rand, seq, max uint32, w int) uint32 {
			if rng.Intn(6) == 0 {
				return max - uint32(rng.Intn(w)) // a repeat inside the window
			}
			return max + 1 + uint32(rng.Intn(3*w)) // the gap went to other receivers
		}},
		{"stale", func(rng *rand.Rand, seq, max uint32, w int) uint32 {
			switch rng.Intn(5) {
			case 0:
				return max - uint32(w+rng.Intn(4*w)) // from before the window
			case 1:
				return max - uint32(rng.Intn(2*w)) // either side of its edge
			}
			return max + 1 + uint32(rng.Intn(w))
		}},
		{"far-jumps", func(rng *rand.Rand, seq, max uint32, w int) uint32 {
			if rng.Intn(10) == 0 {
				return max + uint32(rng.Intn(1<<20)) // far past every slot's sequence
			}
			return max - uint32(rng.Intn(w)) + uint32(rng.Intn(w))
		}},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := 1 << (2 + rng.Intn(6))
			start := rng.Uint32()
			if seed%2 == 0 {
				start = 0 - uint32(rng.Intn(50*w)) // crosses 2^32 early on
			}
			ring, ref := NewHostDedup(w), newMapDedup(w)
			seq, max := start, start
			wrapped := false
			for i := 0; i < 20000; i++ {
				if got, want := ring.Observe(seq), ref.Observe(seq); got != want {
					t.Fatalf("%s seed %d (W=%d) arrival %d seq %#x: ring %v, map %v", sh.name, seed, w, i, seq, got, want)
				}
				if SeqLess(max, seq) {
					wrapped = wrapped || seq < max
					max = seq
				}
				seq = sh.next(rng, seq, max, w)
			}
			if seed%2 == 0 && !wrapped {
				t.Fatalf("%s seed %d: stream never crossed 2^32", sh.name, seed)
			}
		}
	}
}
