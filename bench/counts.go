package main

import (
	"repro/ask"
	"repro/internal/core"
)

// countNames lists the exact per-workload counters in report order. Each is
// read after a rep from the owning layer's own Stats accessor; none is
// maintained by the benchmark.
var countNames = []string{
	"switchd.packets_in", "switchd.tuples_in", "switchd.tuples_absorbed", "switchd.tuples_conflicted",
	"switchd.acks", "switchd.forwarded", "switchd.dup_packets", "switchd.stale_dropped",
	"switchd.corrupt_dropped", "switchd.swaps", "switchd.fetches",
	"pisa.passes",
	"netsim.frames_tx", "netsim.wire_bytes", "netsim.dropped", "netsim.duplicated",
	"netsim.reordered", "netsim.corrupted",
	"window.sent", "window.retransmits", "window.dup_acks",
	"hostd.slot_fill", "hostd.residue_tuples", "hostd.corrupt_dropped",
	"sim.shard_windows", "sim.shard_parallel_windows", "sim.shard_serial_windows", "sim.shard_injects",
	"tenancy.borrowed_rows",
	"cpumodel.sender_busy_ms",
}

// record reads the simulated outcome of a finished rep: result digest,
// virtual completion time and every layer's counters.
func (c *cluster) record(j *job, results []*ask.TaskResult) simRecord {
	rec := simRecord{Counts: make(map[string]float64, len(countNames))}
	n := rec.Counts
	maps := make([]core.Result, len(results))
	receivers := make(map[core.HostID]bool)
	senders := make(map[core.HostID]bool)
	for i, res := range results {
		maps[i] = res.Result
		if ns := int64(res.Elapsed); ns > rec.JCTNs {
			rec.JCTNs = ns
		}
		receivers[j.tasks[i].spec.Receiver] = true
		for _, h := range j.tasks[i].spec.Senders {
			senders[h] = true
		}
	}
	rec.Digest = digest(maps)

	for _, sw := range c.switches {
		for _, t := range j.tasks {
			ts := sw.TaskStatsOf(t.spec.ID)
			n["switchd.packets_in"] += float64(ts.DataPackets)
			n["switchd.tuples_in"] += float64(ts.TuplesIn)
			n["switchd.tuples_absorbed"] += float64(ts.TuplesAggregated)
			n["switchd.tuples_conflicted"] += float64(ts.TuplesConflicted)
		}
		st := sw.Stats()
		n["switchd.acks"] += float64(st.SwitchAcks)
		n["switchd.forwarded"] += float64(st.Forwarded)
		n["switchd.dup_packets"] += float64(st.DupPackets)
		n["switchd.stale_dropped"] += float64(st.StaleDropped)
		n["switchd.corrupt_dropped"] += float64(st.CorruptDropped)
		n["switchd.swaps"] += float64(st.Swaps)
		n["switchd.fetches"] += float64(st.Fetches)
		n["pisa.passes"] += float64(sw.Pipeline().Passes())
	}
	for _, l := range c.links {
		st := l.Stats()
		n["netsim.frames_tx"] += float64(st.TxFrames)
		n["netsim.wire_bytes"] += float64(st.TxWireBytes)
		n["netsim.dropped"] += float64(st.Dropped)
		n["netsim.duplicated"] += float64(st.Duplicated)
		n["netsim.reordered"] += float64(st.Reordered)
		n["netsim.corrupted"] += float64(st.Corrupted)
	}
	var liveSlots, dataPackets int64
	for _, h := range c.hosts {
		d := c.daemon(h)
		for _, ws := range d.ChannelStats() {
			n["window.sent"] += float64(ws.Sent)
			n["window.retransmits"] += float64(ws.Retransmits)
			n["window.dup_acks"] += float64(ws.DupAcks)
		}
		st := d.Stats()
		n["hostd.residue_tuples"] += float64(st.ResidueTuples)
		n["hostd.corrupt_dropped"] += float64(st.CorruptDropped)
		for live, pkts := range st.SlotFill {
			liveSlots += int64(live) * pkts
			dataPackets += pkts
		}
		busy := int64(c.cpu(h).BusyTime())
		if senders[h] {
			n["cpumodel.sender_busy_ms"] += float64(busy) / 1e6
			rec.SenderWireBytes += c.uplink(h).Stats().TxWireBytes
		}
		if receivers[h] {
			rec.ReceiverBusyNs += busy
		}
	}
	if dataPackets > 0 {
		n["hostd.slot_fill"] = float64(liveSlots) / float64(dataPackets)
	}
	if c.group != nil {
		gs := c.group.Stats()
		n["sim.shard_windows"] = float64(gs.Windows)
		n["sim.shard_parallel_windows"] = float64(gs.ParallelWindows)
		n["sim.shard_serial_windows"] = float64(gs.SerialWindows)
		n["sim.shard_injects"] = float64(gs.Injects)
	}
	if c.tenancy != nil {
		for _, u := range c.tenancy.Snapshot() {
			n["tenancy.borrowed_rows"] += float64(u.Borrowed)
		}
	}
	return rec
}
