//go:build !race

package window

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// TestSenderCycleAllocatesNothing pins the window's share of the per-packet
// path: Send (sequence, ring slot, transmit, arm timer) plus the matching Ack
// (stop timer, free slot, advance base) allocate nothing once the ring exists
// and the kernel's event store has grown to hold the stopped timers.
func TestSenderCycleAllocatesNothing(t *testing.T) {
	s := sim.New(1)
	w := NewSender(s, 256, 100*time.Microsecond, func(*wire.Packet) {})
	pkt := mkPkt()
	cycle := func() {
		w.Send(pkt)
		w.Ack(pkt.Seq)
	}
	for i := 0; i < 2000; i++ {
		cycle()
	}
	s.Run(0) // reap the stopped timers, as a running simulation would
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("Send+Ack allocates %v objects per packet, want 0", n)
	}
}
