package hostd

import (
	"repro/internal/core"
	"repro/internal/sim"
)

// pacer adapts a timed stream to the packetizer's paced-source contract,
// anchoring the stream's arrival offsets at start, the virtual time the
// channel starts serving the task. next yields only tuples whose arrival time
// has passed (and reports !ok otherwise); more reports whether a tuple is
// still to come, and dueAt when it arrives — the send chain's pacing stall
// waits until then. Together they make the send loop consume the trace on the
// sim clock: the packetizer packs whatever has arrived, flushes partial
// packets on a lull, and waits for the next arrival. A plain stream is the
// degenerate trace with every arrival at offset zero: every tuple is due at
// once, so it streams back to back and more is reached only at EOF, where it
// reports false.
type pacer struct {
	sim      *sim.Simulation
	ts       core.TimedStream
	start    sim.Time
	pending  core.TimedKV
	has, eof bool
}

func (pc *pacer) fetch() {
	if !pc.has && !pc.eof {
		pc.pending, pc.has = pc.ts()
		pc.eof = !pc.has
	}
}

// next is the packetizer's stream: the next tuple, if it is due.
func (pc *pacer) next() (core.KV, bool) {
	pc.fetch()
	if pc.has && pc.dueAt() <= pc.sim.Now() {
		pc.has = false
		return pc.pending.KV, true
	}
	return core.KV{}, false
}

// more reports whether a tuple is still to come.
func (pc *pacer) more() bool {
	pc.fetch()
	return pc.has
}

// dueAt is the arrival time of the pending tuple (more must have reported
// true).
func (pc *pacer) dueAt() sim.Time { return pc.start.Add(pc.pending.At) }
