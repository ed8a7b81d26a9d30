package window

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func mkPkt() *wire.Packet { return &wire.Packet{Type: wire.TypeData} }

func TestSenderAssignsSequences(t *testing.T) {
	s := sim.New(1)
	var sent []uint32
	w := NewSender(s, 8, 100*time.Microsecond, func(p *wire.Packet) { sent = append(sent, p.Seq) })
	for i := 0; i < 5; i++ {
		w.Send(mkPkt())
	}
	for i, seq := range sent {
		if seq != uint32(i) {
			t.Fatalf("sent = %v, want 0..4", sent)
		}
	}
	if w.live != 5 {
		t.Fatalf("in flight = %d", w.live)
	}
}

func TestSenderWindowLimit(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {})
	for i := 0; i < 4; i++ {
		if !w.CanSend() {
			t.Fatalf("window closed early at %d", i)
		}
		w.Send(mkPkt())
	}
	if w.CanSend() {
		t.Fatal("window open beyond W")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Send past window did not panic")
		}
	}()
	w.Send(mkPkt())
}

func TestSenderAckAdvancesWindow(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {})
	for i := 0; i < 4; i++ {
		w.Send(mkPkt())
	}
	// Out-of-order ACK does not open the window (span unchanged).
	w.Ack(2)
	if w.CanSend() {
		t.Fatal("window opened on out-of-order ACK")
	}
	// ACK of base slides over the acked prefix (0, then 1, 2 already gone).
	w.Ack(0)
	w.Ack(1)
	if !w.CanSend() {
		t.Fatal("window did not open after prefix acked")
	}
	st := w.Stats()
	if st.Acked != 3 || st.Sent != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSenderRetransmitOnTimeout(t *testing.T) {
	s := sim.New(1)
	tx := 0
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) { tx++ })
	w.Send(mkPkt())
	s.Run(sim.Time(250 * time.Microsecond))
	// t=0 initial, retransmits at 100µs and 200µs.
	if tx != 3 {
		t.Fatalf("transmissions = %d, want 3", tx)
	}
	if w.Stats().Retransmits != 2 {
		t.Fatalf("retransmits = %d", w.Stats().Retransmits)
	}
	// ACK stops the timer.
	w.Ack(0)
	s.Run(sim.Time(time.Second))
	if tx != 3 {
		t.Fatalf("retransmitted after ACK: %d", tx)
	}
	if !w.Idle() {
		t.Fatal("not idle after full ACK")
	}
}

func TestSenderDuplicateAck(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {})
	w.Send(mkPkt())
	w.Ack(0)
	w.Ack(0)
	w.Ack(9) // never sent
	st := w.Stats()
	if st.DupAcks != 2 {
		t.Fatalf("DupAcks = %d, want 2", st.DupAcks)
	}
}

func TestSenderBlockingAndIdle(t *testing.T) {
	s := sim.New(1)
	const total = 20
	var w *Sender
	delivered := 0
	// Echo "network": ack every packet after 10µs.
	w = NewSender(s, 4, 100*time.Microsecond, func(p *wire.Packet) {
		seq := p.Seq
		s.After(10*time.Microsecond, func() {
			delivered++
			w.Ack(seq)
		})
	})
	var idleAt sim.Time
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			w.SendBlocking(p, mkPkt())
		}
		w.WaitIdle(p)
		idleAt = p.Now()
	})
	s.Run(0)
	if delivered != total {
		t.Fatalf("delivered = %d, want %d", delivered, total)
	}
	if st := w.Stats(); st.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", st.Retransmits)
	}
	// 20 packets, window 4, 10µs RTT → 5 window-batches × 10µs.
	if idleAt != sim.Time(50*time.Microsecond) {
		t.Fatalf("idleAt = %v, want 50µs", idleAt)
	}
}

func TestSenderLossRecovery(t *testing.T) {
	// Drop every third transmission; everything must still be delivered
	// exactly once to a Dedup-guarded receiver, in bounded time.
	s := sim.New(3)
	const total = 200
	var w *Sender
	d := NewDedup(8)
	received := 0
	n := 0
	w = NewSender(s, 8, 100*time.Microsecond, func(p *wire.Packet) {
		n++
		if n%3 == 0 {
			return // dropped
		}
		seq := p.Seq
		s.After(5*time.Microsecond, func() {
			if d.Observe(seq) == Fresh {
				received++
			}
			// ACK (possibly duplicate) always returns.
			s.After(5*time.Microsecond, func() { w.Ack(seq) })
		})
	})
	s.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			w.SendBlocking(p, mkPkt())
		}
		w.WaitIdle(p)
	})
	s.Run(0)
	if received != total {
		t.Fatalf("received %d distinct packets, want %d", received, total)
	}
	if w.Stats().Retransmits == 0 {
		t.Fatal("expected retransmissions under loss")
	}
}

func TestSenderConstructorValidation(t *testing.T) {
	s := sim.New(1)
	bad := []func(){
		func() { NewSender(s, 0, time.Microsecond, func(*wire.Packet) {}) },
		func() { NewSender(s, 3, time.Microsecond, func(*wire.Packet) {}) },
		func() { NewSender(s, 8, 0, func(*wire.Packet) {}) },
		func() { NewSender(s, 8, time.Microsecond, nil) },
	}
	for i, f := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("constructor %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

// TestSenderRingWrapAround drives the flight ring three times round under
// out-of-order ACKs and checks the window against the model the ring replaced
// — a map of the unacknowledged sequence numbers: same in-flight count, same
// base (the lowest unacknowledged number, or nextSeq), the acknowledged packet
// handed back exactly once, after every step.
func TestSenderRingWrapAround(t *testing.T) {
	const w = 8
	s := sim.New(1)
	snd := NewSender(s, w, 100*time.Microsecond, func(*wire.Packet) {})
	rng := s.Rand()
	unacked := map[uint32]*wire.Packet{} // the old map semantics
	check := func(step string) {
		t.Helper()
		base := snd.NextSeq()
		for seq := range unacked {
			if SeqLess(seq, base) {
				base = seq
			}
		}
		if snd.live != len(unacked) || snd.base != base {
			t.Fatalf("%s: in flight %d base %d, model %d base %d", step, snd.live, snd.base, len(unacked), base)
		}
		if snd.CanSend() != (snd.NextSeq()-base < w) {
			t.Fatalf("%s: CanSend %v with span %d of %d", step, snd.CanSend(), snd.NextSeq()-base, w)
		}
	}
	for snd.NextSeq() < 3*w+5 {
		for snd.CanSend() && rng.Intn(4) != 0 {
			p := mkPkt()
			snd.Send(p)
			unacked[p.Seq] = p
			check("send")
		}
		// Acknowledge a random live flight, not the oldest first.
		for seq, p := range unacked {
			if got := snd.Ack(seq); got != p {
				t.Fatalf("Ack(%d) returned %v, want the flight's packet", seq, got)
			}
			delete(unacked, seq)
			check("ack")
			if got := snd.Ack(seq); got != nil {
				t.Fatalf("second Ack(%d) retired %v", seq, got)
			}
			break
		}
	}
	for seq := range unacked {
		snd.Ack(seq)
	}
	if !snd.Idle() || snd.base != snd.NextSeq() {
		t.Fatalf("not idle after every ACK: in flight %d, base %d, next %d", snd.live, snd.base, snd.NextSeq())
	}
	if st := snd.Stats(); st.Acked != st.Sent || st.DupAcks == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSenderLateAckForReusedSlot: a duplicate ACK for seq arriving after
// seq+W has taken its ring slot is a duplicate — it must not retire the new
// flight, stop its timer, or move the window.
func TestSenderLateAckForReusedSlot(t *testing.T) {
	const w = 4
	s := sim.New(1)
	tx := 0
	snd := NewSender(s, w, 100*time.Microsecond, func(*wire.Packet) { tx++ })
	for i := 0; i < w; i++ {
		snd.Send(mkPkt())
	}
	for seq := uint32(0); seq < w; seq++ {
		snd.Ack(seq)
	}
	reuse := mkPkt()
	snd.Send(reuse) // seq W, in seq 0's slot
	if reuse.Seq != w {
		t.Fatalf("reused slot carries seq %d, want %d", reuse.Seq, w)
	}
	if got := snd.Ack(0); got != nil {
		t.Fatalf("late ACK for seq 0 retired %v", got)
	}
	if st := snd.Stats(); st.DupAcks != 1 || st.Acked != w || snd.live != 1 {
		t.Fatalf("after late ACK: stats %+v, in flight %d", st, snd.live)
	}
	// The new flight's timer is still armed: it retransmits.
	before := tx
	s.Run(sim.Time(150 * time.Microsecond))
	if tx != before+1 {
		t.Fatalf("flight in the reused slot retransmitted %d times, want 1", tx-before)
	}
	if got := snd.Ack(w); got != reuse {
		t.Fatalf("Ack(%d) returned %v, want the reused slot's packet", w, got)
	}
}

// TestSenderRetransmitsAtFlightDeadlines holds the window's one timer to the
// schedule a timer per flight gives: under chosen losses and out-of-order
// ACKs, with and without backoff, a flight's k-th retransmission happens
// exactly at its previous transmission + timeout·2^min(k-1,6) (no backoff:
// + timeout), only while the flight is unacknowledged, and no deadline of an
// unacknowledged flight passes without one. After the last ACK nothing is
// left scheduled, so Run(0) ends at that ACK.
func TestSenderRetransmitsAtFlightDeadlines(t *testing.T) {
	const timeout = 100 * time.Microsecond
	lost := func(seq uint32, try int) bool { return (seq%4 == 1 && try == 0) || (seq%9 == 2 && try < 3) }
	for _, backoff := range []bool{false, true} {
		s := sim.New(1)
		sends := map[uint32][]sim.Time{}
		acked := map[uint32]sim.Time{}
		var lastAck sim.Time
		var w *Sender
		w = NewSender(s, 8, timeout, func(p *wire.Packet) {
			seq := p.Seq
			sends[seq] = append(sends[seq], s.Now())
			if lost(seq, len(sends[seq])-1) {
				return
			}
			// The ACK delay varies with seq, so ACKs overtake each other.
			d := 3*time.Microsecond + time.Duration(seq%5)*2300*time.Nanosecond
			s.After(d, func() {
				if w.Ack(seq) != nil {
					acked[seq], lastAck = s.Now(), s.Now()
				}
			})
		})
		if backoff {
			w.EnableBackoff()
		}
		s.Spawn("sender", func(p *sim.Proc) {
			for i := 0; i < 64; i++ {
				w.SendBlocking(p, mkPkt())
			}
			w.WaitIdle(p)
		})
		end := s.Run(0)
		rto := func(tries int) time.Duration {
			if backoff {
				return timeout << min(tries, 6)
			}
			return timeout
		}
		retx, maxTries := 0, 0
		for seq, ts := range sends {
			a, ok := acked[seq]
			if !ok {
				t.Fatalf("backoff %v: seq %d never acknowledged", backoff, seq)
			}
			for k := 1; k < len(ts); k++ {
				if want := ts[k-1].Add(rto(k - 1)); ts[k] != want {
					t.Fatalf("backoff %v: seq %d transmission %d at %v, want %v", backoff, seq, k, ts[k], want)
				}
				if a <= ts[k] {
					t.Fatalf("backoff %v: seq %d retransmitted at %v, acknowledged at %v", backoff, seq, ts[k], a)
				}
			}
			last := len(ts) - 1
			if deadline := ts[last].Add(rto(last)); a >= deadline {
				t.Fatalf("backoff %v: seq %d acknowledged at %v, past its deadline %v with no retransmission", backoff, seq, a, deadline)
			}
			retx += last
			maxTries = max(maxTries, last)
		}
		if int64(retx) != w.Stats().Retransmits || maxTries != 3 {
			t.Fatalf("backoff %v: %d retransmissions, at most %d per flight; counter %d, want 3 at most", backoff, retx, maxTries, w.Stats().Retransmits)
		}
		if end != lastAck || s.Pending() != 0 {
			t.Fatalf("backoff %v: Run ended at %v with %d events pending, last ACK at %v", backoff, end, s.Pending(), lastAck)
		}
	}
}

// TestSenderStopsTimerWhenIdle: after Reset and after a MaxRetries abort no
// retransmission timer is left live, so the run ends where the window went
// quiet instead of up to a timeout later.
func TestSenderStopsTimerWhenIdle(t *testing.T) {
	const timeout = 100 * time.Microsecond
	s := sim.New(1)
	w := NewSender(s, 4, timeout, func(*wire.Packet) {})
	for i := 0; i < 3; i++ {
		w.Send(mkPkt())
	}
	reset := sim.Time(150 * time.Microsecond) // after one round of retransmissions
	s.At(reset, w.Reset)
	if end := s.Run(0); end != reset || s.Pending() != 0 || !w.Idle() || w.Stats().Retransmits != 3 {
		t.Fatalf("after Reset: Run ended at %v with %d pending, idle %v, %d retransmits; want %v, 0, true, 3",
			end, s.Pending(), w.Idle(), w.Stats().Retransmits, reset)
	}

	s = sim.New(1)
	w = NewSender(s, 4, timeout, func(*wire.Packet) {})
	w.SetMaxRetries(2)
	w.Send(mkPkt())
	w.Send(mkPkt())
	// Retransmissions at 100 and 200 µs; the third deadline aborts.
	abort := sim.Time(3 * timeout)
	if end := s.Run(0); end != abort || s.Pending() != 0 || w.err == nil || w.Stats().Retransmits != 4 {
		t.Fatalf("after abort: Run ended at %v with %d pending, err %v, %d retransmits; want %v, 0, an error, 4",
			end, s.Pending(), w.err, w.Stats().Retransmits, abort)
	}
	// A late ACK still retires an aborted flight, and arms nothing.
	w.Ack(0)
	w.Ack(1)
	if !w.Idle() || s.Pending() != 0 {
		t.Fatalf("late ACKs left idle %v with %d pending", w.Idle(), s.Pending())
	}
}

// TestDrainedWindowKeepsItsTimer: a paced window that drains between sends
// spaced closer than the timeout keeps its one timer queued, weak while
// nothing is in flight, instead of stopping it at each drain and re-arming it
// at the next Send: the first Send's timer is the only one pushed, it never
// fires or pops dead, and Run(0) still ends at the last ACK.
func TestDrainedWindowKeepsItsTimer(t *testing.T) {
	const timeout = 100 * time.Microsecond
	const n = 8
	s := sim.New(1)
	var w *Sender
	var lastAck sim.Time
	w = NewSender(s, 4, timeout, func(p *wire.Packet) {
		seq := p.Seq
		s.After(3*time.Microsecond, func() { w.Ack(seq); lastAck = s.Now() })
	})
	for i := 0; i < n; i++ {
		s.At(sim.Time(i)*sim.Time(10*time.Microsecond), func() { w.Send(mkPkt()) })
	}
	end := s.Run(0)
	if st := s.Stats(); st.Fired != 2*n || st.Cancelled != 0 {
		t.Fatalf("%d events fired and %d popped dead, want the %d sends and ACKs and none", st.Fired, st.Cancelled, 2*n)
	}
	if !w.timer.Pending() || w.timerAt != sim.Time(timeout) {
		t.Fatalf("timer pending %v at %v, want the first Send's, at %v", w.timer.Pending(), w.timerAt, timeout)
	}
	if end != lastAck || s.Pending() != 0 || !w.Idle() {
		t.Fatalf("Run ended at %v with %d pending, idle %v; last ACK at %v", end, s.Pending(), w.Idle(), lastAck)
	}
}
