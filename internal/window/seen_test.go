package window

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeenUpdateFourCases(t *testing.T) {
	// The four cases of §3.3.
	cases := []struct {
		odd          bool
		cur          uint64
		wantObserved bool
		wantNext     uint64
	}{
		{false, 0, false, 1}, // case 1: even, bit 0 → unobserved, set
		{false, 1, true, 1},  // case 2: even, bit 1 → observed, set
		{true, 1, false, 0},  // case 3: odd, bit 1 → unobserved, unset
		{true, 0, true, 0},   // case 4: odd, bit 0 → observed, unset
	}
	for i, c := range cases {
		next, obs := SeenUpdate(c.cur, c.odd)
		if obs != c.wantObserved || next != c.wantNext {
			t.Errorf("case %d: SeenUpdate(%d, odd=%v) = (%d,%v), want (%d,%v)",
				i+1, c.cur, c.odd, next, obs, c.wantNext, c.wantObserved)
		}
	}
}

func TestCompactHalvesMemory(t *testing.T) {
	w := 256
	if len(NewCompactSeen(w).bits) != w || NewNaiveSeen(w).Bits() != 2*w {
		t.Fatal("memory accounting wrong: compact must be W bits, naive 2W")
	}
}

func TestSeqLess(t *testing.T) {
	cases := []struct {
		a, b uint32
		want bool
	}{
		{0, 1, true},
		{1, 0, false},
		{5, 5, false},
		{0xffffffff, 0, true}, // wraparound
		{0, 0xffffffff, false},
	}
	for _, c := range cases {
		if got := SeqLess(c.a, c.b); got != c.want {
			t.Errorf("SeqLess(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// windowedArrivalSeq generates an arrival sequence that respects the sender
// invariant: packet seq values only appear while within W of the highest
// sequence "opened" so far, and any packet may be retransmitted while in
// window. It returns the arrival order (with duplicates).
func windowedArrivalSeq(rng *rand.Rand, w, n int, start uint32) []uint32 {
	var arrivals []uint32
	next := start // next sequence to open
	live := []uint32{}
	for len(arrivals) < n {
		switch {
		case len(live) == 0 || (rng.Intn(2) == 0 && int(next-start) < n && len(live) < w):
			live = append(live, next)
			arrivals = append(arrivals, next)
			next++
		default:
			// Retransmit or retire a live packet.
			i := rng.Intn(len(live))
			if rng.Intn(2) == 0 {
				arrivals = append(arrivals, live[i])
			} else {
				live = append(live[:i], live[i+1:]...)
				// Keep span bounded: retire the oldest occasionally.
			}
		}
		// Enforce span <= w by retiring the oldest when needed.
		for len(live) > 0 && next-live[0] >= uint32(w) {
			live = live[1:]
		}
	}
	return arrivals
}

func TestCompactEquivalentToNaive(t *testing.T) {
	// Property (§3.3 "A Compact seen"): under any windowed arrival pattern,
	// the W-bit compact seen and the 2W-bit naïve seen classify every packet
	// identically.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		w := 1 << (2 + rng.Intn(5)) // 4..64
		start := rng.Uint32()       // arbitrary, including near wraparound
		if trial%5 == 0 {
			start = 0xffffff00 // force wraparound coverage
		}
		arrivals := windowedArrivalSeq(rng, w, 500, start)
		compact, naive := NewCompactSeenAt(w, start), NewNaiveSeen(w)
		for i, seq := range arrivals {
			co, no := compact.Observe(seq), naive.Observe(seq)
			if co != no {
				t.Fatalf("trial %d (w=%d): arrival %d seq=%d: compact=%v naive=%v",
					trial, w, i, seq, co, no)
			}
		}
	}
}

func TestCompactEquivalentToOracle(t *testing.T) {
	// Stronger property: both equal a set-based oracle (each sequence
	// observed exactly once on first arrival) under windowed arrivals.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		w := 1 << (3 + rng.Intn(4))
		start := rng.Uint32()
		arrivals := windowedArrivalSeq(rng, w, 800, start)
		compact := NewCompactSeenAt(w, start)
		seenSet := make(map[uint32]bool)
		for i, seq := range arrivals {
			want := seenSet[seq]
			seenSet[seq] = true
			if got := compact.Observe(seq); got != want {
				t.Fatalf("trial %d: arrival %d seq=%d: compact=%v oracle=%v", trial, i, seq, got, want)
			}
		}
	}
}

func TestCompactSeenWindowSizeValidation(t *testing.T) {
	for _, w := range []int{0, -1, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCompactSeen(%d) did not panic", w)
				}
			}()
			NewCompactSeen(w)
		}()
	}
}

func TestStaleGuard(t *testing.T) {
	g := NewStaleGuard(8)
	if g.Check(100) {
		t.Fatal("first packet stale")
	}
	if g.Check(105) {
		t.Fatal("in-window packet stale")
	}
	if g.maxSeq != 105 {
		t.Fatalf("MaxSeq = %d", g.maxSeq)
	}
	// Window is (105-8, 105] = (97,105]: 98 is live, 97 is stale.
	if g.Check(98) {
		t.Fatal("seq 98 should be live")
	}
	if !g.Check(97) {
		t.Fatal("seq 97 should be stale")
	}
	// Stale check must not regress max_seq.
	if g.maxSeq != 105 {
		t.Fatalf("MaxSeq moved to %d", g.maxSeq)
	}
}

func TestStaleGuardWraparound(t *testing.T) {
	g := NewStaleGuard(16)
	if g.Check(0xfffffff8) {
		t.Fatal("first packet stale")
	}
	if g.Check(4) { // wrapped forward
		t.Fatal("wrapped packet stale")
	}
	if g.maxSeq != 4 {
		t.Fatalf("MaxSeq = %d, want 4", g.maxSeq)
	}
	// Live window is (4-16, 4] = (0xfffffff4, 4]: 0xfffffff5 is live,
	// 0xfffffff4 is stale.
	if g.Check(0xfffffff5) {
		t.Fatal("in-window pre-wrap packet rejected")
	}
	if !g.Check(0xfffffff4) {
		t.Fatal("stale pre-wrap packet accepted")
	}
}

func TestDedupVerdicts(t *testing.T) {
	d := NewDedupAt(8, 10)
	if v := d.Observe(10); v != Fresh {
		t.Fatalf("first = %v", v)
	}
	if v := d.Observe(10); v != Duplicate {
		t.Fatalf("repeat = %v", v)
	}
	if v := d.Observe(11); v != Fresh {
		t.Fatalf("next = %v", v)
	}
	if v := d.Observe(30); v != Fresh {
		t.Fatalf("jump = %v", v)
	}
	if v := d.Observe(10); v != Stale {
		t.Fatalf("old = %v", v)
	}
	for _, v := range []Verdict{Fresh, Duplicate, Stale, Verdict(9)} {
		if v.String() == "" {
			t.Fatal("empty verdict string")
		}
	}
}

func TestDedupQuick(t *testing.T) {
	// Property: a Fresh verdict is given at most once per sequence number,
	// regardless of arrival pattern (even ones violating the window
	// invariant — staleness may misclassify, but fresh-twice would break
	// exactly-once aggregation; within the windowed pattern it cannot
	// happen).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 << (3 + rng.Intn(3))
		start := rng.Uint32()
		d := NewDedupAt(w, start)
		fresh := make(map[uint32]int)
		for _, seq := range windowedArrivalSeq(rng, w, 600, start) {
			if d.Observe(seq) == Fresh {
				fresh[seq]++
				if fresh[seq] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDedupEveryLivePacketFreshOnce(t *testing.T) {
	// Every distinct sequence that arrives while live must be classified
	// Fresh exactly once (never zero times): no packet is wrongly dropped.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		w := 1 << (3 + rng.Intn(3))
		start := rng.Uint32()
		arrivals := windowedArrivalSeq(rng, w, 600, start)
		d := NewDedupAt(w, start)
		fresh := make(map[uint32]int)
		distinct := make(map[uint32]bool)
		for _, seq := range arrivals {
			distinct[seq] = true
			if d.Observe(seq) == Fresh {
				fresh[seq]++
			}
		}
		for seq := range distinct {
			if fresh[seq] != 1 {
				t.Fatalf("trial %d: seq %d fresh %d times", trial, seq, fresh[seq])
			}
		}
	}
}

func TestCompactSeenAliasesOnGappedStreams(t *testing.T) {
	// The compact seen's known limitation (and why re-aggregation tiers use
	// TagSeen): when a slot's next touch lands an even number of windows
	// later, the parity trick misreads a fresh packet as a duplicate.
	w := 8
	compact, tagged := NewCompactSeen(w), NewTagSeen(w)
	if compact.Observe(2) || tagged.Observe(2) {
		t.Fatal("first appearance of seq 2 misread")
	}
	// seq w+2 never arrives (fully absorbed upstream); seq 2w+2 is fresh.
	if !compact.Observe(uint32(2*w + 2)) {
		t.Fatal("expected the compact seen to alias seq 2w+2 (documents the limitation)")
	}
	if tagged.Observe(uint32(2*w + 2)) {
		t.Fatal("TagSeen misread fresh seq 2w+2 as duplicate")
	}
}

func TestTagSeenEquivalentToOracleOnGappedStreams(t *testing.T) {
	// TagSeen must classify correctly under windowed arrivals with arbitrary
	// gaps: keep only a random subset of sequence numbers, as a spine that
	// sees only the residual packets of its leaves would.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		w := 1 << (3 + rng.Intn(4))
		start := rng.Uint32()
		if trial%5 == 0 {
			start = 0xffffff00 // wraparound coverage
		}
		keep := make(map[uint32]bool)
		arrivals := windowedArrivalSeq(rng, w, 800, start)
		for _, seq := range arrivals {
			if _, decided := keep[seq]; !decided {
				keep[seq] = rng.Intn(4) != 0
			}
		}
		tagged := NewTagSeen(w)
		seenSet := make(map[uint32]bool)
		for i, seq := range arrivals {
			if !keep[seq] {
				continue
			}
			want := seenSet[seq]
			seenSet[seq] = true
			if got := tagged.Observe(seq); got != want {
				t.Fatalf("trial %d (w=%d): arrival %d seq=%d: tagged=%v oracle=%v",
					trial, w, i, seq, got, want)
			}
		}
	}
}

func TestTagSeenValidation(t *testing.T) {
	for _, w := range []int{0, -1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTagSeen(%d) did not panic", w)
				}
			}()
			NewTagSeen(w)
		}()
	}
}

// BenchmarkAblationSeenNaive measures the straightforward 2W-bit receive
// window (Eq. 5–7, twice the state): the baseline of the seen ablation.
// §3.3's compact window, which bench/ times as window.seen_observe_ns, must
// not be slower than it.
func BenchmarkAblationSeenNaive(b *testing.B) {
	s := NewNaiveSeen(256)
	b.ReportMetric(float64(s.Bits()), "state-bits")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint32(i))
	}
}
