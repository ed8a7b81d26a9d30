package window

// Failure-model tests for the reliability layer: bounded retransmission
// (max-retry abort + Reset recovery), retransmission backoff, and the compact
// seen's behaviour across W-bit segment parity flips and 32-bit sequence
// wraparound — including the NewCompactSeenAt prepared-parity initialization
// that RegisterFlowAt relies on after a switch reboot.

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestSenderMaxRetriesAborts(t *testing.T) {
	s := sim.New(1)
	tx := 0
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) { tx++ })
	w.SetMaxRetries(3)
	w.Send(mkPkt())
	s.Run(0)
	// Initial transmission + 3 retries, then the window gives up.
	if tx != 4 {
		t.Fatalf("transmissions = %d, want 4 (1 initial + 3 retries)", tx)
	}
	if w.err == nil {
		t.Fatal("window did not fail after exhausting retries")
	}
	if w.Stats().Aborts != 1 {
		t.Fatalf("Aborts = %d, want 1", w.Stats().Aborts)
	}
}

func TestSenderFailWakesBlockedSender(t *testing.T) {
	// A process blocked in SendBlocking (window full) or WaitIdle must be
	// released with an error when retries run out, not sleep forever.
	s := sim.New(1)
	w := NewSender(s, 1, 100*time.Microsecond, func(p *wire.Packet) {})
	w.SetMaxRetries(2)
	var sendErr, idleErr error
	done := false
	s.Spawn("sender", func(p *sim.Proc) {
		if err := w.SendBlocking(p, mkPkt()); err != nil {
			sendErr = err
		} else if sendErr = w.SendBlocking(p, mkPkt()); sendErr == nil {
			t.Error("second SendBlocking succeeded with a dead window")
		}
		idleErr = w.WaitIdle(p)
		done = true
	})
	s.Run(0)
	if !done {
		t.Fatal("sender still blocked after abort")
	}
	if sendErr == nil || idleErr == nil {
		t.Fatalf("errors not propagated: send=%v idle=%v", sendErr, idleErr)
	}
}

func TestSenderResetRestoresService(t *testing.T) {
	s := sim.New(1)
	delivered := 0
	drop := true
	var w *Sender
	w = NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {
		if !drop {
			delivered++
			seq := p.Seq
			s.After(time.Microsecond, func() { w.Ack(seq) })
		}
	})
	w.SetMaxRetries(2)
	w.Send(mkPkt())
	s.Run(0)
	if w.err == nil {
		t.Fatal("window should have failed")
	}
	next := w.NextSeq()
	w.Reset()
	if w.err != nil || w.live != 0 {
		t.Fatal("Reset did not clear the failure")
	}
	if w.NextSeq() != next {
		t.Fatal("Reset must not reuse sequence numbers (receiver dedup state)")
	}
	// The link heals; subsequent sends complete.
	drop = false
	w.Send(mkPkt())
	s.Run(0)
	if delivered == 0 || !w.Idle() {
		t.Fatalf("window not serving after Reset: delivered=%d idle=%v", delivered, w.Idle())
	}
	if w.Stats().Resets != 1 {
		t.Fatalf("Resets = %d, want 1", w.Stats().Resets)
	}
}

func TestSenderBackoffSpacing(t *testing.T) {
	// With backoff enabled, retransmissions space out exponentially
	// (timeout << tries), so a dead switch is probed gently instead of at
	// full line rate.
	s := sim.New(1)
	var times []sim.Time
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) { times = append(times, s.Now()) })
	w.EnableBackoff()
	w.SetMaxRetries(4)
	w.Send(mkPkt())
	s.Run(0)
	if len(times) != 5 {
		t.Fatalf("transmissions = %d, want 5", len(times))
	}
	// Gaps: 100µs, 200µs, 400µs, 800µs.
	want := []time.Duration{100, 200, 400, 800}
	for i := 1; i < len(times); i++ {
		gap := times[i].Sub(times[i-1])
		if gap != want[i-1]*time.Microsecond {
			t.Fatalf("gap %d = %v, want %vµs", i, gap, want[i-1])
		}
	}
}

func TestCompactSeenSegmentWraparound(t *testing.T) {
	// Table-driven walk of one bit (r = 0) across four consecutive W-sized
	// segments: the same Eq. 8 four cases, but exercised through the
	// alternating parity a long-lived flow sees as it wraps its W-bit state.
	const w = 8
	c := NewCompactSeen(w)
	steps := []struct {
		seq          uint32
		wantObserved bool
	}{
		{0, false},     // segment 0 (even): first appearance
		{0, true},      // retransmission inside the segment
		{w, false},     // segment 1 (odd): bit was left 1 = prepared
		{w, true},      // retransmission
		{2 * w, false}, // segment 2 (even): bit was left 0 = prepared
		{2 * w, true},
		{3 * w, false}, // segment 3 (odd)
		{3 * w, true},
	}
	for i, st := range steps {
		if got := c.Observe(st.seq); got != st.wantObserved {
			t.Fatalf("step %d: Observe(%d) = %v, want %v", i, st.seq, got, st.wantObserved)
		}
	}
}

func TestCompactSeenAtPreparedParity(t *testing.T) {
	// NewCompactSeenAt must initialize every bit to the "unobserved" sentinel
	// of the first segment that will touch it — the invariant RegisterFlowAt
	// reproduces in switch registers when a flow re-attaches mid-stream after
	// a reboot. Starts straddle segment boundaries, odd segments, and the
	// 32-bit sequence wraparound.
	const w = 16
	for _, start := range []uint32{0, 1, w - 1, w, w + 3, 2 * w, 3*w + 5, 0xFFFFFFF0, 0xFFFFFFFF} {
		c := NewCompactSeenAt(w, start)
		// The first W sequences from start must each be fresh exactly once.
		for i := uint32(0); i < w; i++ {
			seq := start + i // serial arithmetic wraps naturally
			if c.Observe(seq) {
				t.Fatalf("start %#x: seq %#x observed on first appearance", start, seq)
			}
			if !c.Observe(seq) {
				t.Fatalf("start %#x: seq %#x not observed on retransmit", start, seq)
			}
		}
		// And the following segment must again classify correctly.
		for i := uint32(0); i < w; i++ {
			seq := start + w + i
			if c.Observe(seq) {
				t.Fatalf("start %#x: next-segment seq %#x observed on first appearance", start, seq)
			}
		}
	}
}

func TestDedupAtAcrossSerialWraparound(t *testing.T) {
	// Full receive-window dedup re-attached near the top of the sequence
	// space: every live packet across the 2³²→0 wrap is fresh exactly once,
	// duplicates are flagged, and pre-re-attach stale packets are dropped.
	const w = 16
	start := uint32(0xFFFFFFF8) // 8 sequences before the wrap
	d := NewDedupAt(w, start)
	for i := uint32(0); i < 4*w; i++ {
		seq := start + i
		if v := d.Observe(seq); v != Fresh {
			t.Fatalf("seq %#x first appearance = %v, want fresh", seq, v)
		}
		if v := d.Observe(seq); v != Duplicate {
			t.Fatalf("seq %#x retransmit = %v, want duplicate", seq, v)
		}
	}
	// A packet from before the re-attach point is outside the live window.
	if v := d.Observe(start - 2*w); v != Stale {
		t.Fatalf("ancient packet = %v, want stale", v)
	}
}
