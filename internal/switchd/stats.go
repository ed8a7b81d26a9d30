package switchd

import "repro/internal/core"

// Stats are switch-global counters, a point-in-time view over the
// telemetry registry (metrics.go) so the accessor and the exporters can
// never diverge.
type Stats struct {
	Forwarded       int64 // frames forwarded toward a host
	UnregisteredFwd int64 // flow packets forwarded without reliability state
	StaleDropped    int64 // packets outside the live window, dropped silently
	DupPackets      int64 // retransmissions identified by seen
	SwitchAcks      int64 // ACKs generated for fully aggregated packets
	Swaps           int64 // shadow-copy flips applied
	Fetches         int64 // fetch requests served
	Clears          int64 // clear requests served

	// Failure-model counters (failover.go).
	Crashes     int64 // Crash() calls
	Reboots     int64 // Reboot() calls (epoch advances)
	DroppedDown int64 // frames black-holed while crashed
	Probes      int64 // health probes answered
	Revocations int64 // regions revoked

	// CorruptDropped counts ingress frames quarantined by the end-to-end
	// checksum check (integrity, ingress.go).
	CorruptDropped int64
}

// TaskStats are per-task aggregation counters, the source of Table 1 and
// Fig. 9.
type TaskStats struct {
	// TuplesIn counts live tuples in fresh data packets entering the AAs.
	TuplesIn int64
	// TuplesAggregated counts tuples consumed by switch aggregators.
	TuplesAggregated int64
	// TuplesConflicted counts tuples forwarded after an aggregator conflict.
	TuplesConflicted int64
	// DataPackets counts fresh data packets of the task.
	DataPackets int64
	// AckedPackets counts data packets fully absorbed (switch-ACKed).
	AckedPackets int64
	// ForwardedPackets counts data packets forwarded to the receiver.
	ForwardedPackets int64
}

// Add accumulates o into t: the counters of one task summed over several
// switches. TestTaskStatsAddCoversEveryField fails if a new field is left
// out.
func (t *TaskStats) Add(o *TaskStats) {
	t.TuplesIn += o.TuplesIn
	t.TuplesAggregated += o.TuplesAggregated
	t.TuplesConflicted += o.TuplesConflicted
	t.DataPackets += o.DataPackets
	t.AckedPackets += o.AckedPackets
	t.ForwardedPackets += o.ForwardedPackets
}

// AggregatedTupleRatio is Table 1's first row: aggregated/incoming tuples.
func (t *TaskStats) AggregatedTupleRatio() float64 {
	if t.TuplesIn == 0 {
		return 0
	}
	return float64(t.TuplesAggregated) / float64(t.TuplesIn)
}

// AckedPacketRatio is Table 1's second row: switch-ACKed/total data packets.
func (t *TaskStats) AckedPacketRatio() float64 {
	if t.DataPackets == 0 {
		return 0
	}
	return float64(t.AckedPackets) / float64(t.DataPackets)
}

// Stats returns a snapshot of the switch-global counters (atomic reads of
// the registry instruments; safe to call from any goroutine).
func (sw *Switch) Stats() Stats {
	m := &sw.met
	return Stats{
		Forwarded:       m.forwarded.Value(),
		UnregisteredFwd: m.unregisteredFwd.Value(),
		StaleDropped:    m.staleDropped.Value(),
		DupPackets:      m.dupPackets.Value(),
		SwitchAcks:      m.switchAcks.Value(),
		Swaps:           m.swaps.Value(),
		Fetches:         m.fetches.Value(),
		Clears:          m.clears.Value(),
		Crashes:         m.crashes.Value(),
		Reboots:         m.reboots.Value(),
		DroppedDown:     m.droppedDown.Value(),
		Probes:          m.probes.Value(),
		Revocations:     m.revocations.Value(),
		CorruptDropped:  m.corruptDropped.Value(),
	}
}

// TaskStatsOf returns a snapshot of the per-task counters since the
// task's last region allocation. The snapshot is freshly allocated from
// atomic reads, so — unlike the historical live-pointer accessor — it is
// safe to call concurrently with ingress traffic. Unknown tasks return an
// empty stats object.
func (sw *Switch) TaskStatsOf(task core.TaskID) *TaskStats {
	te := sw.taskEntryOf(task)
	sw.tasksMu.RLock()
	base := te.base
	sw.tasksMu.RUnlock()
	s := sub(te.cumulative(), base)
	return &s
}
