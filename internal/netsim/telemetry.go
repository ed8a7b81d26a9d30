package netsim

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Telemetry wiring for the fabric. Links are on the per-frame hot path, so
// all metrics are exposed as GaugeFunc callbacks over the counters the links
// already maintain: polling happens only at sample/export time and costs the
// data path nothing. Fault outcomes (drop, duplicate, reorder) additionally
// emit trace events under telemetry.CompNetsim when a tracer is attached.

// Instrument attaches the observability sink to the network. Per-link
// utilization gauges (netsim.link_*) are registered for every host attached
// so far and for every host attached afterwards; call right after New.
func (n *Network) Instrument(sink telemetry.Sink) {
	n.tel = sink
	if sink.Reg != nil {
		sink.Reg.GaugeFunc("netsim.switch_unroutable_frames", n.Unroutable)
	}
	for _, id := range n.Hosts() {
		n.instrumentPort(id, n.ports[id])
	}
}

// instrumentPort registers both directions of one host port.
func (n *Network) instrumentPort(id core.HostID, p *port) {
	if n.tel.Reg == nil && n.tel.Tr == nil {
		return
	}
	host := strconv.Itoa(int(id))
	p.up.instrument(n.tel, host, "up")
	p.down.instrument(n.tel, host, "down")
}

// instrument registers one link direction's gauges and hands it the tracer.
func (l *Link) instrument(sink telemetry.Sink, host, dir string) {
	l.tr = sink.Tr
	l.host = host
	l.dir = dir
	reg := sink.Reg
	if reg == nil {
		return
	}
	labels := []telemetry.Label{telemetry.L("host", host), telemetry.L("dir", dir)}
	reg.GaugeFunc("netsim.link_tx_frames", func() int64 { return l.stats.TxFrames }, labels...)
	reg.GaugeFunc("netsim.link_tx_wire_bytes", func() int64 { return l.stats.TxWireBytes }, labels...)
	reg.GaugeFunc("netsim.link_tx_good_bytes", func() int64 { return l.stats.TxGoodBytes }, labels...)
	reg.GaugeFunc("netsim.link_dropped_frames", func() int64 { return l.stats.Dropped }, labels...)
	reg.GaugeFunc("netsim.link_dup_frames", func() int64 { return l.stats.Duplicated }, labels...)
	reg.GaugeFunc("netsim.link_reordered_frames", func() int64 { return l.stats.Reordered }, labels...)
	reg.GaugeFunc("netsim.link_corrupted_frames", func() int64 { return l.stats.Corrupted }, labels...)
	reg.GaugeFunc("netsim.link_truncated_frames", func() int64 { return l.stats.Truncated }, labels...)
	reg.GaugeFunc("netsim.link_backlog_ns", func() int64 { return int64(l.Backlog()) }, labels...)
}

// traceFault emits one fault-outcome event (drop/dup/reorder/corrupt) for a
// frame (Frame.Task: zero for an already-damaged one).
func (l *Link) traceFault(kind string, f *Frame) {
	if l.tr == nil {
		return
	}
	l.tr.EmitNote(telemetry.CompNetsim, kind, f.Task(), l.host+"/"+l.dir)
}
