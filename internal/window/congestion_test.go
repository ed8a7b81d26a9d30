package window

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

func TestCongestionWindowGrowth(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 256, 100*time.Microsecond, func(*wire.Packet) {})
	w.EnableCongestionControl()
	if got := w.cc.allow(); got != 2 {
		t.Fatalf("initial cwnd = %d, want 2", got)
	}
	// Slow start: +1 per ACK until ssthresh (128).
	seq := uint32(0)
	sendAck := func() {
		w.Send(mkPkt())
		w.Ack(seq)
		seq++
	}
	for i := 0; i < 126; i++ {
		sendAck()
	}
	if got := w.cc.allow(); got != 128 {
		t.Fatalf("cwnd after slow start = %d, want 128", got)
	}
	// Congestion avoidance: sub-linear growth.
	for i := 0; i < 128; i++ {
		sendAck()
	}
	if got := w.cc.allow(); got < 128 || got > 130 {
		t.Fatalf("cwnd in avoidance = %d, want ~129", got)
	}
}

func TestCongestionCappedAtW(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 32, 100*time.Microsecond, func(*wire.Packet) {})
	w.EnableCongestionControl()
	seq := uint32(0)
	for i := 0; i < 500; i++ {
		w.Send(mkPkt())
		w.Ack(seq)
		seq++
	}
	// §7: the congestion window must never exceed the reliability window.
	if got := w.cc.allow(); got != 32 {
		t.Fatalf("cwnd = %d, want capped at W=32", got)
	}
}

func TestCongestionTimeoutBackoff(t *testing.T) {
	s := sim.New(1)
	tx := 0
	w := NewSender(s, 256, 100*time.Microsecond, func(*wire.Packet) { tx++ })
	w.EnableCongestionControl()
	seq := uint32(0)
	for i := 0; i < 62; i++ { // grow cwnd to 64
		w.Send(mkPkt())
		w.Ack(seq)
		seq++
	}
	if w.cc.allow() != 64 {
		t.Fatalf("setup cwnd = %d", w.cc.allow())
	}
	// Leave one packet unacked past its timeout.
	w.Send(mkPkt())
	s.Run(sim.Time(150 * time.Microsecond))
	if got := w.cc.allow(); got != 2 {
		t.Fatalf("cwnd after timeout = %d, want 2", got)
	}
	// Recovery is slow-start up to half the old cwnd (ssthresh 32).
	w.Ack(seq)
	seq++
	for i := 0; i < 29; i++ {
		w.Send(mkPkt())
		w.Ack(seq)
		seq++
	}
	if got := w.cc.allow(); got != 32 {
		t.Fatalf("cwnd at recovered ssthresh = %d, want 32", got)
	}
	// Beyond ssthresh, growth is additive: ~+1 per window of ACKs, far
	// from slow start's doubling.
	for i := 0; i < 40; i++ {
		w.Send(mkPkt())
		w.Ack(seq)
		seq++
	}
	if got := w.cc.allow(); got != 33 {
		t.Fatalf("avoidance cwnd = %d, want 33", got)
	}
}

func TestCongestionLimitsInflight(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 256, time.Second, func(*wire.Packet) {})
	w.EnableCongestionControl()
	n := 0
	for w.CanSend() {
		w.Send(mkPkt())
		n++
	}
	if n != 2 {
		t.Fatalf("initial in-flight allowance = %d, want cwnd 2", n)
	}
}

func TestCongestionOffUnlimitedToW(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 64, time.Second, func(*wire.Packet) {})
	if w.cc != nil {
		t.Fatal("congestion control on without EnableCongestionControl")
	}
	n := 0
	for w.CanSend() {
		w.Send(mkPkt())
		n++
	}
	if n != 64 {
		t.Fatalf("in-flight = %d, want full W", n)
	}
}
