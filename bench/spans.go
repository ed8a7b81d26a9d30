package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/wire"
)

// Span kinds: one per call the benchmark interposes on at a layer boundary.
const (
	spanSwitchIngress = iota // switchd.Switch.HandleIngress
	spanHostRx               // hostd.Daemon.HandleFrame
	spanHostSend             // netsim HostSend (host → uplink)
	spanSwitchSend           // netsim SwitchSend (switch → downlink)
	spanKinds
)

// span is one recorded call: which boundary, when it started and ended on the
// host clock, the span that was open when it started (-1: called from the
// event loop or a proc, i.e. from inside Sim.Run directly) and the packet
// type it carried (0 for a damaged frame that has no decoded packet).
type span struct {
	kind       uint8
	ptype      wire.Type
	parent     int32
	start, end time.Duration
}

// spanLog keeps spans in memory for the whole traced rep. The simulation runs
// one event callback or proc at a time, so spans nest strictly and one "open"
// cursor is enough.
type spanLog struct {
	base  time.Time
	spans []span
	open  int32
}

func newSpanLog() *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, 1<<20), open: -1}
}

func (l *spanLog) begin(kind uint8, f *netsim.Frame) int32 {
	var pt wire.Type
	if f.Pkt != nil {
		pt = f.Pkt.Type
	}
	l.spans = append(l.spans, span{kind: kind, ptype: pt, parent: l.open, start: time.Since(l.base)})
	l.open = int32(len(l.spans) - 1)
	return l.open
}

func (l *spanLog) end(i int32) {
	l.spans[i].end = time.Since(l.base)
	l.open = l.spans[i].parent
}

// spanFabric is the rack network as switch and daemons see it, with a span
// around every call that crosses a layer boundary in either direction.
type spanFabric struct {
	net *netsim.Network
	log *spanLog
}

type spanSwitch struct {
	h   netsim.SwitchHandler
	log *spanLog
}

func (s spanSwitch) HandleIngress(f *netsim.Frame) {
	i := s.log.begin(spanSwitchIngress, f)
	s.h.HandleIngress(f)
	s.log.end(i)
}

type spanHost struct {
	h   netsim.HostHandler
	log *spanLog
}

func (s spanHost) HandleFrame(f *netsim.Frame) {
	i := s.log.begin(spanHostRx, f)
	s.h.HandleFrame(f)
	s.log.end(i)
}

func (f *spanFabric) AttachSwitch(h netsim.SwitchHandler) {
	f.net.AttachSwitch(spanSwitch{h, f.log})
}

func (f *spanFabric) AttachHost(id core.HostID, h netsim.HostHandler) {
	f.net.AttachHost(id, spanHost{h, f.log})
}

func (f *spanFabric) SwitchSend(fr *netsim.Frame) {
	i := f.log.begin(spanSwitchSend, fr)
	f.net.SwitchSend(fr)
	f.log.end(i)
}

func (f *spanFabric) HostSend(fr *netsim.Frame) {
	i := f.log.begin(spanHostSend, fr)
	f.net.HostSend(fr)
	f.log.end(i)
}

func (f *spanFabric) Uplink(id core.HostID) *netsim.Link { return f.net.Uplink(id) }

// spanMetrics are reported per frame a host put on the wire (the HostSend
// count), all four over the same denominator, so they add up to the traced
// Sim.Run wall time per such frame.
var spanMetrics = []string{
	"span.switchd_ingress_self_ns", "span.hostd_rx_self_ns", "span.netsim_send_ns", "span.run_residual_ns",
}

// selfTimes sums, per span kind, each span's duration minus the part its
// child spans cover, and counts the spans of each kind.
func (l *spanLog) selfTimes() (self [spanKinds]time.Duration, count [spanKinds]int) {
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range l.spans {
		self[s.kind] += s.end - s.start - child[i]
		count[s.kind]++
	}
	return self, count
}

// metrics attributes the traced Sim.Run wall time: handler self times, link
// sends, and the residual that no span covers — the event kernel, proc
// switching and the daemons' transmit side.
func (l *spanLog) metrics(runWall time.Duration) map[string]float64 {
	self, count := l.selfTimes()
	frames := float64(count[spanHostSend])
	if frames == 0 {
		frames = 1
	}
	send := self[spanHostSend] + self[spanSwitchSend]
	residual := runWall - self[spanSwitchIngress] - self[spanHostRx] - send
	return map[string]float64{
		"span.switchd_ingress_self_ns": float64(self[spanSwitchIngress]) / frames,
		"span.hostd_rx_self_ns":        float64(self[spanHostRx]) / frames,
		"span.netsim_send_ns":          float64(send) / frames,
		"span.run_residual_ns":         float64(residual) / frames,
	}
}
