package switchd

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// The switch's counters live on a telemetry.Registry (the cluster-wide one
// when telemetry is enabled, a private one otherwise: Sink.Registry), so the
// Stats/TaskStats accessors are views over the same numbers the exporters
// see — no call site can silently diverge from the monitoring plane.

// switchMetrics caches the switch-global instrument pointers so the
// per-packet path pays one atomic add per event, never a registry lookup.
type switchMetrics struct {
	forwarded       *telemetry.Counter
	unregisteredFwd *telemetry.Counter
	staleDropped    *telemetry.Counter
	dupPackets      *telemetry.Counter
	switchAcks      *telemetry.Counter
	swaps           *telemetry.Counter
	fetches         *telemetry.Counter
	clears          *telemetry.Counter
	crashes         *telemetry.Counter
	reboots         *telemetry.Counter
	droppedDown     *telemetry.Counter
	corruptDropped  *telemetry.Counter
	probes          *telemetry.Counter
	revocations     *telemetry.Counter

	// aaOccupancy tracks non-blank aggregator entries across all AAs:
	// +1 per reserved slot, decremented when a range is wiped.
	aaOccupancy *telemetry.Gauge
}

// taskEntry is one task's cumulative registry counters plus the base
// snapshot taken at the last region (re-)allocation. TaskStatsOf reports
// cumulative−base, preserving the historical "stats reset on AllocRegion"
// semantics while the registry export stays monotonic (the monitoring
// plane survives reboots; see Reboot).
type taskEntry struct {
	tuplesIn         *telemetry.Counter
	tuplesAggregated *telemetry.Counter
	tuplesConflicted *telemetry.Counter
	dataPackets      *telemetry.Counter
	ackedPackets     *telemetry.Counter
	forwardedPackets *telemetry.Counter

	base TaskStats // guarded by Switch.tasksMu
}

func (sw *Switch) initMetrics(sink telemetry.Sink) {
	reg := sink.Registry()
	sw.reg = reg
	sw.tr = sink.Tr
	if a := sw.opts.Addr; a != 0 && sink.Reg != nil {
		// A fabric switch on a shared registry labels every instrument with
		// its address, so the switches of one tree do not merge counters.
		// The rack's switch (address 0) and a switch on a private registry
		// keep the unlabeled names.
		sw.lbl = []telemetry.Label{telemetry.L("switch", "0x"+strconv.FormatUint(uint64(a), 16))}
	}
	l := sw.lbl
	sw.met = switchMetrics{
		forwarded:       reg.Counter("switchd.forwarded_pkts", l...),
		unregisteredFwd: reg.Counter("switchd.unregistered_fwd_pkts", l...),
		staleDropped:    reg.Counter("switchd.stale_dropped_pkts", l...),
		dupPackets:      reg.Counter("switchd.dup_pkts", l...),
		switchAcks:      reg.Counter("switchd.switch_acks", l...),
		swaps:           reg.Counter("switchd.swaps", l...),
		fetches:         reg.Counter("switchd.fetches", l...),
		clears:          reg.Counter("switchd.clears", l...),
		crashes:         reg.Counter("switchd.crashes", l...),
		reboots:         reg.Counter("switchd.reboots", l...),
		droppedDown:     reg.Counter("switchd.dropped_down_pkts", l...),
		corruptDropped:  reg.Counter("switchd.corrupt_dropped", l...),
		probes:          reg.Counter("switchd.probes_answered", l...),
		revocations:     reg.Counter("switchd.revocations", l...),
		aaOccupancy:     reg.Gauge("switchd.aa_occupancy", l...),
	}
	reg.GaugeFunc("switchd.free_rows", func() int64 { return int64(sw.rows.totalFree()) }, l...)
	reg.GaugeFunc("switchd.regions_active", func() int64 { return int64(len(sw.regions)) }, l...)
	reg.GaugeFunc("switchd.flows_registered", func() int64 { return int64(len(sw.flows)) }, l...)
	reg.GaugeFunc("switchd.epoch", func() int64 { return int64(sw.epoch) }, l...)
	reg.GaugeFunc("switchd.down", func() int64 {
		if sw.down {
			return 1
		}
		return 0
	}, l...)
}

// taskEntryOf returns the task's instrument bundle, creating it on first
// use. The read path is an RLock so concurrent TaskStatsOf readers do not
// serialize; ingress takes a task's entry from its region and calls this
// only for a packet of a task that has none.
func (sw *Switch) taskEntryOf(task core.TaskID) *taskEntry {
	sw.tasksMu.RLock()
	te := sw.tasks[task]
	sw.tasksMu.RUnlock()
	if te != nil {
		return te
	}
	sw.tasksMu.Lock()
	defer sw.tasksMu.Unlock()
	if te = sw.tasks[task]; te != nil {
		return te
	}
	var buf [3]telemetry.Label
	labels := append(append(buf[:0], sw.lbl...), telemetry.L("task", strconv.FormatUint(uint64(task), 10)))
	if tn := task.Tenant(); tn != 0 {
		// Multi-tenant fabrics slice every per-task series by tenant too;
		// untenanted tasks keep the exact single-label identity they always
		// had (metric-name goldens stay byte-identical).
		labels = append(labels, telemetry.L("tenant", strconv.FormatUint(uint64(tn), 10)))
	}
	te = &taskEntry{
		tuplesIn:         sw.reg.Counter("switchd.tuples_in", labels...),
		tuplesAggregated: sw.reg.Counter("switchd.tuples_aggregated", labels...),
		tuplesConflicted: sw.reg.Counter("switchd.tuples_conflicted", labels...),
		dataPackets:      sw.reg.Counter("switchd.data_pkts", labels...),
		ackedPackets:     sw.reg.Counter("switchd.acked_pkts", labels...),
		forwardedPackets: sw.reg.Counter("switchd.forwarded_data_pkts", labels...),
	}
	sw.tasks[task] = te
	return te
}

// cumulative reads the entry's monotonic counters. Ingress counts a tuple in
// before it counts it aggregated or conflicted, and a packet before it counts
// it ACKed or forwarded, so a reader concurrent with ingress takes them in the
// opposite order: the snapshot then never shows more outcomes than arrivals
// (fields of a composite literal are evaluated in source order).
func (te *taskEntry) cumulative() TaskStats {
	return TaskStats{
		TuplesAggregated: te.tuplesAggregated.Value(),
		TuplesConflicted: te.tuplesConflicted.Value(),
		TuplesIn:         te.tuplesIn.Value(),
		AckedPackets:     te.ackedPackets.Value(),
		ForwardedPackets: te.forwardedPackets.Value(),
		DataPackets:      te.dataPackets.Value(),
	}
}

func sub(a, b TaskStats) TaskStats {
	return TaskStats{
		TuplesIn:         a.TuplesIn - b.TuplesIn,
		TuplesAggregated: a.TuplesAggregated - b.TuplesAggregated,
		TuplesConflicted: a.TuplesConflicted - b.TuplesConflicted,
		DataPackets:      a.DataPackets - b.DataPackets,
		AckedPackets:     a.AckedPackets - b.AckedPackets,
		ForwardedPackets: a.ForwardedPackets - b.ForwardedPackets,
	}
}

// resetTaskStats rebases a task's view counters at the current cumulative
// values: TaskStatsOf starts over at zero while the registry export stays
// monotonic.
func (sw *Switch) resetTaskStats(te *taskEntry) {
	sw.tasksMu.Lock()
	te.base = te.cumulative()
	sw.tasksMu.Unlock()
}

// clearAARange zeroes rows [lo,hi) of every AA, keeping the occupancy
// gauge consistent by counting the non-blank entries wiped. One pass reads
// each row and writes only the rows that are not already zero, so clearing a
// region that holds nothing — every allocation on a fresh switch — writes
// nothing. Control-plane only — never on the per-packet path.
func (sw *Switch) clearAARange(lo, hi int) {
	n := uint(8 * sw.cfg.KPartBytes)
	var wiped int64
	for _, aa := range sw.raAAs {
		for row := lo; row < hi; row++ {
			cur := aa.ControlRead(row)
			if cur == 0 {
				continue
			}
			if cur>>n != 0 {
				wiped++
			}
			aa.ControlWrite(row, 0)
		}
	}
	sw.met.aaOccupancy.Add(-wiped)
}
