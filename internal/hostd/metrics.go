package hostd

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The daemon's counters live on a telemetry.Registry (the cluster-wide
// one when telemetry is enabled, a private one otherwise: Sink.Registry);
// the Stats, FailoverStats, and RecvHandle.Stats accessors are views over
// those instruments.

// hostMetrics caches per-daemon instrument pointers (all labeled
// host=<id>), so hot paths pay one atomic add per event.
type hostMetrics struct {
	tuplesSent      *telemetry.Counter
	longTuplesSent  *telemetry.Counter
	packetsSent     *telemetry.Counter
	residueTuples   *telemetry.Counter
	switchTuples    *telemetry.Counter
	swapsTriggered  *telemetry.Counter
	packetsReceived *telemetry.Counter
	// slotFill buckets transmitted data packets by live slot count
	// (hostd.slot_fill{host,slots}); entries are created lazily so the
	// export carries only populated fill levels.
	slotFill [65]*telemetry.Counter
	// batchTuples is the packetizer batch-size distribution: tuples packed
	// per transmitted packet (short+medium+long).
	batchTuples *telemetry.Histogram

	// corruptDropped counts inbound frames quarantined by the end-to-end
	// checksum check (integrity; see HandleFrame).
	corruptDropped *telemetry.Counter

	// Failover counters (failover.go).
	probesSent         *telemetry.Counter
	probeTimeouts      *telemetry.Counter
	epochChanges       *telemetry.Counter
	failovers          *telemetry.Counter
	reattaches         *telemetry.Counter
	replaysSent        *telemetry.Counter
	replayTuplesMerged *telemetry.Counter
	degradedTimeNs     *telemetry.Counter // closed degraded intervals, ns
	degraded           *telemetry.Gauge   // 0/1 failover state
}

// recvMetrics are one receive task's counters
// (hostd.recv_*{task=...}); RecvTaskStats is the view.
type recvMetrics struct {
	dataPackets   *telemetry.Counter
	residueTuples *telemetry.Counter
	longTuples    *telemetry.Counter
	replayTuples  *telemetry.Counter
	switchEntries *telemetry.Counter
	swaps         *telemetry.Counter
}

func (d *Daemon) initMetrics(sink telemetry.Sink) {
	reg := sink.Registry()
	d.reg = reg
	d.tr = sink.Tr
	d.hostLbl = telemetry.L("host", strconv.Itoa(int(d.host)))
	l := d.hostLbl
	d.met = hostMetrics{
		tuplesSent:      reg.Counter("hostd.tuples_sent", l),
		longTuplesSent:  reg.Counter("hostd.long_tuples_sent", l),
		packetsSent:     reg.Counter("hostd.pkts_sent", l),
		residueTuples:   reg.Counter("hostd.residue_tuples", l),
		switchTuples:    reg.Counter("hostd.switch_tuples", l),
		swapsTriggered:  reg.Counter("hostd.swaps_triggered", l),
		packetsReceived: reg.Counter("hostd.pkts_received", l),
		batchTuples:     reg.Histogram("hostd.batch_tuples", l),
		corruptDropped:  reg.Counter("hostd.corrupt_dropped", l),

		probesSent:         reg.Counter("hostd.probes_sent", l),
		probeTimeouts:      reg.Counter("hostd.probe_timeouts", l),
		epochChanges:       reg.Counter("hostd.epoch_changes", l),
		failovers:          reg.Counter("hostd.failovers", l),
		reattaches:         reg.Counter("hostd.reattaches", l),
		replaysSent:        reg.Counter("hostd.replays_sent", l),
		replayTuplesMerged: reg.Counter("hostd.replay_tuples_merged", l),
		degradedTimeNs:     reg.Counter("hostd.degraded_time_ns", l),
		degraded:           reg.Gauge("hostd.degraded", l),
	}
}

// slotFillCounter lazily creates the fill-level counter for n live slots.
func (d *Daemon) slotFillCounter(n int) *telemetry.Counter {
	if c := d.met.slotFill[n]; c != nil {
		return c
	}
	c := d.reg.Counter("hostd.slot_fill", d.hostLbl, telemetry.L("slots", strconv.Itoa(n)))
	d.met.slotFill[n] = c
	return c
}

// newRecvMetrics builds a task's receiver-side counters.
func (d *Daemon) newRecvMetrics(task core.TaskID) recvMetrics {
	l := telemetry.L("task", strconv.FormatUint(uint64(task), 10))
	return recvMetrics{
		dataPackets:   d.reg.Counter("hostd.recv_data_pkts", l),
		residueTuples: d.reg.Counter("hostd.recv_residue_tuples", l),
		longTuples:    d.reg.Counter("hostd.recv_long_tuples", l),
		replayTuples:  d.reg.Counter("hostd.recv_replay_tuples", l),
		switchEntries: d.reg.Counter("hostd.recv_switch_entries", l),
		swaps:         d.reg.Counter("hostd.recv_swaps", l),
	}
}
