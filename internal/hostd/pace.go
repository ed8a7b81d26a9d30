package hostd

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// paceStream adapts a timed stream to the packetizer's paced-source
// contract, anchoring the stream's arrival offsets at the virtual time the
// channel starts serving the task. The returned stream yields only tuples
// whose arrival time has passed (and reports !ok otherwise); stall sleeps
// on the sim clock until the next arrival is due, returning false at EOF.
// Together they make the send loop consume the trace on the sim clock: the
// packetizer packs whatever has arrived, flushes partial packets on a lull,
// and parks until the next arrival. A plain stream is the degenerate trace
// with every arrival at offset zero: every tuple is due at once, so it
// streams back to back and stall is reached only at EOF, where it never
// sleeps.
func paceStream(p *sim.Proc, ts core.TimedStream) (core.Stream, func() bool) {
	start := p.Now()
	var pending core.TimedKV
	has, eof := false, false
	fetch := func() {
		if !has && !eof {
			pending, has = ts()
			eof = !has
		}
	}
	stream := func() (core.KV, bool) {
		fetch()
		if has && start.Add(pending.At) <= p.Now() {
			has = false
			return pending.KV, true
		}
		return core.KV{}, false
	}
	stall := func() bool {
		fetch()
		if !has {
			return false
		}
		p.SleepUntil(start.Add(pending.At))
		return true
	}
	return stream, stall
}
