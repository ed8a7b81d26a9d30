package window_test

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/wire"
)

// The compact W-bit seen replaces the naïve 2W-bit design (§3.3): same
// verdicts, half the switch SRAM.
func ExampleCompactSeen() {
	compact := window.NewCompactSeen(8)
	naive := window.NewNaiveSeen(8)
	arrivals := []uint32{0, 1, 1, 2, 0, 3} // 1 and 0 retransmitted
	for _, seq := range arrivals {
		c, n := compact.Observe(seq), naive.Observe(seq)
		fmt.Printf("seq %d: dup=%v (agree=%v)\n", seq, c, c == n)
	}
	// Output:
	// seq 0: dup=false (agree=true)
	// seq 1: dup=false (agree=true)
	// seq 1: dup=true (agree=true)
	// seq 2: dup=false (agree=true)
	// seq 0: dup=true (agree=true)
	// seq 3: dup=false (agree=true)
}

// A sender window retransmits unacknowledged packets on a fine-grained
// timeout and never exceeds W packets in flight.
func ExampleSender() {
	s := sim.New(1)
	transmissions := 0
	var w *window.Sender
	w = window.NewSender(s, 4, 100*time.Microsecond, func(pkt *wire.Packet) {
		transmissions++
		if pkt.Seq != 1 { // pretend packet 1's first copy is lost
			seq := pkt.Seq
			s.After(10*time.Microsecond, func() { w.Ack(seq) })
		} else if transmissions > 2 {
			seq := pkt.Seq
			s.After(10*time.Microsecond, func() { w.Ack(seq) })
		}
	})
	s.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			w.SendBlocking(p, &wire.Packet{Type: wire.TypeData})
		}
		w.WaitIdle(p)
	})
	s.Run(0)
	st := w.Stats()
	fmt.Printf("sent=%d retransmits=%d acked=%d\n", st.Sent, st.Retransmits, st.Acked)
	// Output:
	// sent=3 retransmits=1 acked=3
}
