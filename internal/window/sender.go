package window

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// SenderStats counts sender-window activity. It is a point-in-time view
// over the sender's telemetry counters (see Instrument).
type SenderStats struct {
	Sent        int64 // first transmissions
	Retransmits int64
	Acked       int64
	DupAcks     int64 // ACKs for packets no longer in flight
	Aborts      int64 // flights that exhausted MaxRetries
	Resets      int64 // failover window resets
}

// senderMetrics are the sender's instruments. A bare NewSender gets
// standalone counters (so Stats always works) and nil histograms;
// Instrument re-points everything at a shared registry.
type senderMetrics struct {
	sent        *telemetry.Counter
	retransmits *telemetry.Counter
	acked       *telemetry.Counter
	dupAcks     *telemetry.Counter
	aborts      *telemetry.Counter
	resets      *telemetry.Counter
	rtt         *telemetry.Histogram // first-transmission RTT, ns (Karn's rule)
	tries       *telemetry.Histogram // retransmissions per acked flight
}

// Congestion is the optional loss-based congestion control of §7
// (Discussion): an AIMD congestion window whose ceiling is the reliability
// window W — "the congestion window should not exceed the maximum window
// defined in the reliability mechanism, protecting the switch receive
// window from malfunctioning". Slow start doubles per window of ACKs up to
// ssthresh, then congestion avoidance adds one packet per window; a timeout
// halves ssthresh and restarts from a small window.
type congestion struct {
	cwnd     float64
	ssthresh float64
	max      float64
}

func newCongestion(w int) *congestion {
	return &congestion{cwnd: 2, ssthresh: float64(w) / 2, max: float64(w)}
}

func (c *congestion) allow() int { return int(c.cwnd) }

func (c *congestion) onAck() {
	if c.cwnd < c.ssthresh {
		c.cwnd++ // slow start
	} else {
		c.cwnd += 1 / c.cwnd // congestion avoidance
	}
	if c.cwnd > c.max {
		c.cwnd = c.max
	}
}

func (c *congestion) onTimeout() {
	c.ssthresh = c.cwnd / 2
	if c.ssthresh < 2 {
		c.ssthresh = 2
	}
	c.cwnd = 2
}

// Sender is the host-side sliding window of §3.3: at most W packets in
// flight, per-packet retransmission on a fine-grained timeout (100 µs in the
// paper), and no reaction to out-of-order ACKs — the switch and the host
// receiver both emit ACKs, so ordering carries no loss signal.
//
// Every flight has its own deadline, its last transmission plus the timeout
// (times 2^k with backoff), but the window keeps one kernel timer: armed, and
// strong, no later than the earliest live deadline whenever a flight is live,
// and left armed as a weak event (sim.Timer.SetWeak) when nothing is in
// flight, so a paced window that drains between packets neither stops it nor
// re-arms it, and an idle window does not keep Run from ending. When it fires
// it retransmits every flight that is due, in sequence order, and re-arms for
// the earliest deadline left, so each retransmission happens at its flight's
// own deadline while an ACK costs no timer event; a fire that finds nothing
// in flight does nothing.
//
// Sequence numbers are assigned by the window so the in-flight span never
// exceeds W, which the switch's receive window requires.
type Sender struct {
	sim      *sim.Simulation
	w        uint32
	timeout  time.Duration
	transmit func(*wire.Packet)
	// lists are the run's packet free lists, read for their Poison switch.
	lists *wire.Pool

	nextSeq uint32
	base    uint32 // lowest unacked sequence
	// ring holds the flights, slot seq & (w-1): the live sequence numbers
	// lie in [base, nextSeq), at most W of them, so no two share a slot and a
	// flight needs neither a map entry nor an allocation of its own. It is
	// made by the first Send (a sender that never sends pays nothing).
	ring []flight
	live int // flights in the ring: sent, not yet acknowledged

	// timer is the window's one retransmission timer: pending and strong at
	// timerAt, no later than the earliest live deadline, whenever a flight is
	// live and the window has not failed; weak, if still pending, when none is.
	timer   sim.Timer
	timerAt sim.Time

	spaceSig *sim.Signal // fired when window space opens
	idleSig  *sim.Signal // fired when nothing is in flight

	// maxRetries bounds per-packet retransmissions (0 = unlimited, the
	// paper's behavior). When a flight exhausts it the window fails: the
	// timer stops and blocked senders return err instead of retrying
	// into a dead peer forever.
	maxRetries int
	backoff    bool // exponential per-flight retransmission backoff
	err        error

	// onTimeoutFn is the method value s.onTimeout, bound once at NewSender
	// so arming the timer allocates no closure.
	onTimeoutFn func()

	cc   *congestion // nil unless EnableCongestionControl
	met  senderMetrics
	tr   *telemetry.Tracer
	flow string // label for trace events; set by Instrument
}

// flight is one ring slot. pkt is nil while the slot is free, and a slot is
// reused by seq+W as soon as seq is retired.
type flight struct {
	pkt    *wire.Packet
	due    sim.Time // retransmission deadline
	tries  int      // retransmissions so far
	sentAt sim.Time // first transmission time (RTT sampling)
}

// slot returns the ring slot of seq.
func (s *Sender) slot(seq uint32) *flight { return &s.ring[seq&(s.w-1)] }

// retire frees f's slot and returns the packet it carried, marking the timer
// weak when no flight is left. With the run's free lists poisoned (Pool.Poison)
// the slot is stamped too, so a timeout that did read a retired slot would
// report the sentinel sequence number.
func (s *Sender) retire(f *flight) *wire.Packet {
	pkt := f.pkt
	*f = flight{}
	if s.lists.Poison {
		f.tries = int(wire.PoisonSeq)
	}
	if s.live--; s.live == 0 {
		s.timer.SetWeak(true)
	}
	return pkt
}

// NewSender returns a sender window. transmit is invoked for every
// transmission and retransmission; it must not retain the packet.
func NewSender(s *sim.Simulation, w int, timeout time.Duration, transmit func(*wire.Packet)) *Sender {
	if w <= 0 || w&(w-1) != 0 {
		panic("window: sender window must be a positive power of two")
	}
	if timeout <= 0 {
		panic("window: non-positive retransmission timeout")
	}
	if transmit == nil {
		panic("window: nil transmit")
	}
	snd := &Sender{
		sim:      s,
		w:        uint32(w),
		timeout:  timeout,
		transmit: transmit,
		lists:    &netsim.PoolOf(s).Pool,
		spaceSig: sim.NewSignal(s),
		idleSig:  sim.NewSignal(s),
		met: senderMetrics{
			sent:        &telemetry.Counter{},
			retransmits: &telemetry.Counter{},
			acked:       &telemetry.Counter{},
			dupAcks:     &telemetry.Counter{},
			aborts:      &telemetry.Counter{},
			resets:      &telemetry.Counter{},
		},
	}
	snd.onTimeoutFn = snd.onTimeout
	return snd
}

// Instrument moves the window's counters onto a shared registry under
// window.*{flow=...} names, adds RTT and flight-retry histograms plus an
// in-flight occupancy gauge, and enables stall/resume trace events. Call
// right after NewSender, before any traffic (counts recorded before the
// call stay on the private instruments). A zero sink is a no-op.
func (s *Sender) Instrument(sink telemetry.Sink, flow string) {
	if sink.Reg == nil {
		return
	}
	l := telemetry.L("flow", flow)
	s.met = senderMetrics{
		sent:        sink.Reg.Counter("window.sent_pkts", l),
		retransmits: sink.Reg.Counter("window.retransmits", l),
		acked:       sink.Reg.Counter("window.acked_pkts", l),
		dupAcks:     sink.Reg.Counter("window.dup_acks", l),
		aborts:      sink.Reg.Counter("window.aborts", l),
		resets:      sink.Reg.Counter("window.resets", l),
		rtt:         sink.Reg.Histogram("window.rtt_ns", l),
		tries:       sink.Reg.Histogram("window.flight_tries", l),
	}
	sink.Reg.GaugeFunc("window.in_flight", func() int64 { return int64(s.live) }, l)
	s.tr = sink.Tr
	s.flow = flow
}

// Stats returns a snapshot of the counters.
func (s *Sender) Stats() SenderStats {
	return SenderStats{
		Sent:        s.met.sent.Value(),
		Retransmits: s.met.retransmits.Value(),
		Acked:       s.met.acked.Value(),
		DupAcks:     s.met.dupAcks.Value(),
		Aborts:      s.met.aborts.Value(),
		Resets:      s.met.resets.Value(),
	}
}

// Idle reports whether every sent packet has been acknowledged.
func (s *Sender) Idle() bool { return s.live == 0 }

// EnableCongestionControl turns on the AIMD congestion window (§7). Call
// before the first Send.
func (s *Sender) EnableCongestionControl() { s.cc = newCongestion(int(s.w)) }

// SetMaxRetries bounds per-packet retransmissions; after n unanswered
// retransmissions of any one packet the window fails and all blocked senders
// are released with its error. n = 0 restores unlimited retries.
func (s *Sender) SetMaxRetries(n int) { s.maxRetries = n }

// EnableBackoff switches retransmission to exponential backoff: the k-th
// retransmission of a packet waits timeout·2^min(k,6). Off by default so
// the paper's fixed fine-grained timeout is preserved.
func (s *Sender) EnableBackoff() { s.backoff = true }

// NextSeq returns the sequence number the next Send will use.
func (s *Sender) NextSeq() uint32 { return s.nextSeq }

// fail aborts the window from its timer, which is then not re-armed: every
// blocked SendBlocking/WaitIdle caller wakes up returning err. The flights
// stay in flight (a late ACK still retires them, Reset abandons them).
func (s *Sender) fail(err error) {
	if s.err != nil {
		return
	}
	s.err = err
	s.met.aborts.Inc()
	s.tr.EmitNote(telemetry.CompWindow, "window_abort", 0, s.flow)
	s.spaceSig.Fire()
	s.idleSig.Fire()
}

// Reset abandons all in-flight packets and clears a previous failure: the
// timer stops, the base jumps to nextSeq, and blocked callers wake. The
// failover machinery calls it when the switch's receive-window state has been
// lost anyway (reboot) and the flow is about to be replayed out of band;
// sequence numbers are NOT reused, so receiver-side dedup state stays valid.
func (s *Sender) Reset() {
	for seq := s.base; seq != s.nextSeq; seq++ {
		if f := s.slot(seq); f.pkt != nil {
			s.retire(f)
		}
	}
	s.timer.Stop()
	s.base = s.nextSeq
	s.err = nil
	s.met.resets.Inc()
	s.tr.EmitNote(telemetry.CompWindow, "window_reset", 0, s.flow)
	s.spaceSig.Fire()
	s.idleSig.Fire()
}

// CanSend reports whether the window has room for another packet.
func (s *Sender) CanSend() bool {
	limit := s.w
	if s.cc != nil {
		if cl := uint32(s.cc.allow()); cl < limit {
			limit = cl
		}
	}
	return s.nextSeq-s.base < limit
}

// Send assigns the next sequence number to pkt, transmits it, and sets its
// retransmission deadline. The caller must ensure CanSend; blocking callers
// use SendBlocking.
func (s *Sender) Send(pkt *wire.Packet) {
	if !s.CanSend() {
		panic(fmt.Sprintf("window: Send with full window (base=%d next=%d)", s.base, s.nextSeq))
	}
	if s.ring == nil {
		s.ring = make([]flight, s.w)
	}
	pkt.Seq = s.nextSeq
	s.nextSeq++
	f := s.slot(pkt.Seq)
	*f = flight{pkt: pkt, sentAt: s.sim.Now(), due: s.deadline(0)}
	s.live++
	s.met.sent.Inc()
	s.transmit(pkt)
	s.pull(f.due)
}

// SendBlocking is Send for process-style callers: it blocks p until window
// space is available. It returns the window's abort error if the window
// fails while blocked (or already has).
func (s *Sender) SendBlocking(p *sim.Proc, pkt *wire.Packet) error {
	stalled := false
	for {
		if done, err := s.SendFunc(pkt, &stalled, nil); done {
			return err
		}
		p.Wait(s.spaceSig)
	}
}

// SendFunc is SendBlocking for callback chains, and its one implementation.
// It reports done when pkt was sent, or with the abort error when the window
// has failed; otherwise it subscribes wake to the window's next opening (a
// nil wake: the caller waits for it itself), and the chain calls it again
// with the same stalled flag when wake runs. stalled starts false for each
// packet and carries the window_stall / window_resume trace state between
// calls.
func (s *Sender) SendFunc(pkt *wire.Packet, stalled *bool, wake func()) (done bool, err error) {
	if !s.CanSend() {
		if s.err != nil {
			return true, s.err
		}
		if !*stalled {
			*stalled = true
			s.tr.Emit(telemetry.CompWindow, "window_stall", int64(pkt.Task), int64(s.nextSeq-s.base), 0)
		}
		if wake != nil {
			s.spaceSig.Subscribe(wake)
		}
		return false, nil
	}
	if *stalled {
		s.tr.Emit(telemetry.CompWindow, "window_resume", int64(pkt.Task), int64(s.nextSeq-s.base), 0)
	}
	if s.err != nil {
		return true, s.err
	}
	s.Send(pkt)
	return true, nil
}

// WaitIdle blocks p until all sent packets are acknowledged, or returns the
// abort error if the window fails first.
func (s *Sender) WaitIdle(p *sim.Proc) error {
	for !s.Idle() {
		if s.err != nil {
			return s.err
		}
		p.Wait(s.idleSig)
	}
	return s.err
}

// deadline returns when a flight transmitted now with tries retransmissions
// behind it times out: one timeout later, or timeout·2^min(tries,6) with
// backoff.
func (s *Sender) deadline(tries int) sim.Time {
	to := s.timeout
	if s.backoff {
		to <<= uint(min(tries, 6))
	}
	return s.sim.Now().Add(to)
}

// pull makes the timer fire by at, strong: it keeps a pending timer set no
// later, weak or not, and otherwise arms one, stopping one set later.
func (s *Sender) pull(at sim.Time) {
	if s.timer.Pending() && s.timerAt <= at {
		s.timer.SetWeak(false)
		return
	}
	s.timer.Stop()
	s.timerAt, s.timer = at, s.sim.At(at, s.onTimeoutFn)
}

// onTimeout is the window's timer firing. Every live flight whose deadline
// has come is retransmitted, in sequence order, unless its retry budget is
// exhausted — then the peer is presumed dead and the window aborts. The timer
// re-arms for the earliest deadline still live; when the flights it was set
// for have been acknowledged meanwhile, nothing is due and it just moves on.
func (s *Sender) onTimeout() {
	now := s.sim.Now()
	var next sim.Time
	found := false
	for seq := s.base; seq != s.nextSeq; seq++ {
		f := s.slot(seq)
		if f.pkt == nil {
			continue
		}
		if f.due <= now {
			if s.maxRetries > 0 && f.tries >= s.maxRetries {
				s.fail(fmt.Errorf("window: packet seq=%d unacknowledged after %d retransmissions", f.pkt.Seq, f.tries))
				return
			}
			f.tries++
			s.met.retransmits.Inc()
			if s.cc != nil {
				s.cc.onTimeout()
			}
			s.transmit(f.pkt)
			f.due = s.deadline(f.tries)
		}
		if !found || f.due < next {
			next, found = f.due, true
		}
	}
	if found {
		s.pull(next)
	}
}

// Ack processes an acknowledgment for seq and returns the packet of the
// flight it retired, which the window no longer references — the caller that
// drew it from a free list may release it now. Duplicate or unknown ACKs are
// counted and ignored (nil): a sequence number outside [base, nextSeq) names
// no live flight even when seq+W has since taken its ring slot.
func (s *Sender) Ack(seq uint32) *wire.Packet {
	var f *flight
	if seq-s.base < s.nextSeq-s.base {
		f = s.slot(seq)
	}
	if f == nil || f.pkt == nil {
		s.met.dupAcks.Inc()
		return nil
	}
	tries, sentAt := f.tries, f.sentAt
	pkt := s.retire(f)
	s.met.acked.Inc()
	// RTT histogram under Karn's rule: retransmitted flights are ambiguous
	// (the ACK may answer any copy), so only clean flights are sampled.
	if tries == 0 {
		s.met.rtt.Record(int64(s.sim.Now() - sentAt))
	}
	s.met.tries.Record(int64(tries))
	ccGrew := false
	if s.cc != nil {
		before := s.cc.allow()
		s.cc.onAck()
		ccGrew = s.cc.allow() > before
	}
	// Advance the base over the acknowledged prefix.
	advanced := false
	for s.base != s.nextSeq && s.slot(s.base).pkt == nil {
		s.base++
		advanced = true
	}
	if advanced || ccGrew {
		s.spaceSig.Fire()
	}
	if s.live == 0 {
		s.idleSig.Fire()
	}
	return pkt
}
