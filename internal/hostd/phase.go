package hostd

import (
	"fmt"
	"slices"

	"repro/internal/telemetry"
)

// phase is one value of a receiving task's lifecycle, on one of two axes.
//
// Progress is a chain (§3.1 steps ⑨–⑫): streaming until every sender has
// FINed, finishing while the teardown waits and fetches, committed once the
// final fetch is in, or at once with no region to fetch (replays are ignored
// from then on), done once the result is built.
//
// Region is what the task holds at the switch: held; swapping, held with a
// shadow-copy round running (§3.4); revoked, read back by the drain, then
// draining, committed by it and being merged and freed, then drained; or
// host-only, which it is from the start with Rows < 0, or after a re-attach
// or a drain a switch reboot defeated. Switch state is soft: a held or
// revoked region can always give way to the host-only path.
type phase uint8

const (
	streaming phase = iota + 1
	finishing
	committed
	done
	held
	swapping
	revoked
	draining
	drained
	hostOnly
)

var phaseNames = [...]string{
	streaming: "streaming", finishing: "finishing", committed: "committed", done: "done",
	held: "held", swapping: "swapping", revoked: "revoked", draining: "draining",
	drained: "drained", hostOnly: "host-only",
}

// moves is the transition table, the only place a move is allowed: moves[p]
// lists what a task in p may enter on p's axis. It relies on Config.Validate
// keeping Failover and SwapThreshold apart, so a swap round never meets a
// revocation or a re-attach.
var moves = [hostOnly + 1][]phase{
	streaming: {finishing},
	finishing: {committed},
	committed: {done},
	held:      {swapping, revoked, hostOnly},
	swapping:  {held},
	revoked:   {draining, hostOnly},
	draining:  {drained},
}

// enter moves the task to next on next's axis. A move the table lacks is a
// protocol bug and panics; every other is traced (task_phase, a = from,
// b = to) and wakes the teardown.
func (t *recvTask) enter(next phase) {
	cur := &t.progress
	if next >= held {
		cur = &t.region
	}
	if !slices.Contains(moves[*cur], next) {
		panic(fmt.Sprintf("hostd: task %d cannot move from %s to %s", t.spec.ID, phaseNames[*cur], phaseNames[next]))
	}
	t.d.tr.Emit(telemetry.CompHostd, "task_phase", int64(t.spec.ID), int64(*cur), int64(next))
	*cur = next
	t.changed.Fire()
}

// switchCommitted reports whether the task's switch state is in its result,
// by its teardown or by a drain: a replay merges nothing from then on.
func (t *recvTask) switchCommitted() bool {
	return t.progress >= committed || t.region == draining || t.region == drained
}
