package hostd

import "repro/internal/core"

// Retained reports, per data channel, how many tasks' failover replay history
// the channel still holds.
func (d *Daemon) Retained() []int {
	out := make([]int, len(d.channels))
	for i, ch := range d.channels {
		out[i] = len(ch.retained)
	}
	return out
}

// WrapHandBacks replaces each data channel's hand-back from its send chain to
// txLoop with wrap's function; call it once the loops have started.
func (d *Daemon) WrapHandBacks(wrap func(ch int, resume func()) func()) {
	for i, ch := range d.channels {
		ch.tx.resume = wrap(i, ch.tx.resume)
	}
}

// RecoveryPending reports whether data channel ch has a failover recovery
// requested that txLoop has not yet begun.
func (d *Daemon) RecoveryPending(ch int) bool { return d.channels[ch].recoverReq != 0 }

// CommitSwitchState commits a streaming task's switch state, as a drain does
// once its read of the revoked region is in.
func (d *Daemon) CommitSwitchState(task core.TaskID) {
	t := d.recvTasks[task]
	t.enter(revoked)
	t.enter(draining)
}

// Notified counts the task notifications no stream has consumed yet.
func (d *Daemon) Notified() int { return len(d.notified) }

// TaskState sizes what a receiving task holds per packet: its failover
// ledger, its FIN generations and its fetch scratch.
func (d *Daemon) TaskState(task core.TaskID) (merged, finned, fetched int) {
	t := d.recvTasks[task]
	return len(t.merged), len(t.finned), cap(t.fetched)
}

// PhaseName names the phase a task_phase trace event carries in a or b.
func PhaseName(p int64) string { return phaseNames[p] }
