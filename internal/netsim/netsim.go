// Package netsim models the cluster network: hosts attached to a single
// top-of-rack switch by full-duplex links with finite bandwidth, propagation
// delay, and byte-accurate serialization cost, plus fault injection (loss,
// duplication, reordering) used by the reliability experiments.
//
// Topology matches the paper's testbed (§5.1): every host connects to one
// switch port by a 100 Gbps link. The switch forwards at line rate with a
// fixed pipeline latency; its behaviour is supplied by a SwitchHandler (the
// ASK program from internal/switchd, or a plain forwarder for baselines).
//
// Serialization is charged per frame as WireBytes·8/bandwidth on the sending
// link, which reproduces the paper's goodput model: a data packet with x
// 8-byte tuples costs 8x+78 bytes of wire time (§5.3).
package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Frame is one packet in flight together with its byte accounting.
type Frame struct {
	Src, Dst core.HostID
	Pkt      *wire.Packet
	// WireBytes is the total on-wire cost including L1 framing.
	WireBytes int
	// GoodBytes is the application-payload portion, used for goodput
	// metrics (e.g. 8 bytes per live tuple).
	GoodBytes int
	// Raw, when non-nil, holds the damaged on-wire bytes of a frame that was
	// corrupted or truncated in flight (wire.Codec Encode layout, including
	// the CRC32C trailer). Pkt is nil for such frames: receivers must Decode
	// Raw themselves and quarantine the frame when the checksum fails.
	Raw []byte
	// Owned marks the frame and its packet as exclusively owned by whoever
	// currently holds the frame (clone-elision invariant, DESIGN.md):
	//
	//   - Senders set it when nothing retains the packet after Send — e.g. a
	//     freshly built ACK, or an explicit clone. The link then hands the
	//     frame through by ownership transfer instead of deep-copying it.
	//   - Senders leave it false when they retain the packet (window
	//     retransmission buffers, failover history); the link clones at
	//     delivery exactly as before, and the clone arrives Owned.
	//
	// Every delivered frame is therefore exclusively owned by its receiver,
	// which may mutate the packet freely and should call Release when no
	// reference into it survives.
	Owned bool
	// pooled marks a frame drawn from the frame free list (NewFrame): only
	// those are recycled by Release. A frame built as a struct literal stays
	// with the garbage collector however often it is released or re-sent.
	pooled bool
}

// framePool is the frame free list, beside wire's packet free list and under
// the same rules (wire/pool.go): a frame crosses shard lanes with its packet,
// hence a sync.Pool, and is zeroed on reuse, so which physical frame carries
// a packet is unobservable. Internally synchronised, so every shard's
// handlers may draw from it.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// Sentinels stamped over a recycled frame under wire.SetPoolPoison(true): a
// stale holder routes to an address no fabric attaches, loudly.
const (
	PoisonAddr      core.HostID = 0xEEEE
	PoisonWireBytes             = -0x0EADBEEF
)

// NewFrame returns a zeroed frame from the free list — the one acquisition:
// a daemon's send, a switch's reply and the link's delivery clone draw their
// frame here and fill it in. Whoever ends up holding the frame hands it back
// with Release.
func NewFrame() *Frame {
	f := framePool.Get().(*Frame)
	*f = Frame{pooled: true}
	return f
}

// Corrupted reports whether the frame was damaged in flight and carries raw
// bytes instead of a decoded packet.
func (f *Frame) Corrupted() bool { return f.Raw != nil }

// Release is the one line that ends a frame's life: its packet goes back to
// the wire free list when the caller owns it (see Owned), and the frame itself
// to the frame free list when it was drawn from there (NewFrame). Receivers
// call it once they retain no reference into the frame or its packet; the
// link calls it on a frame it dropped, or cloned instead of delivering. It is
// a no-op for a struct-literal frame that is not owned or already released, so
// calling it defensively is safe — and such a frame, with the packet it does
// not own, can be sent again as often as its builder likes.
func (f *Frame) Release() {
	if f.Owned && f.Pkt != nil {
		f.Pkt.Release()
		f.Pkt = nil
	}
	if !f.pooled {
		return
	}
	*f = Frame{}
	if wire.PoolPoison() {
		f.Src, f.Dst, f.WireBytes = PoisonAddr, PoisonAddr, PoisonWireBytes
	}
	framePool.Put(f)
}

// Task returns the task of the frame's packet for trace events, or 0 for a
// damaged frame, which carries raw bytes and no decoded packet.
func (f *Frame) Task() int64 {
	if f.Pkt == nil {
		return 0
	}
	return int64(f.Pkt.Task)
}

// Admit is the one admission of a frame at a receiver, switch or host: a
// frame damaged in flight arrives as raw bytes and is decoded — checksum
// verified — before any field is interpreted. It reports whether the frame
// arrived raw, and the decode error on which the receiver must quarantine it
// (the drop looks like a loss to the sender). A raw frame that decodes is
// only reachable with verification disabled, or on a CRC collision.
func (f *Frame) Admit(c wire.Codec) (wasRaw bool, err error) {
	if f.Pkt != nil || f.Raw == nil {
		return false, nil // the per-frame path: kept small enough to inline
	}
	return true, f.decode(c)
}

func (f *Frame) decode(c wire.Codec) error {
	pkt, err := c.Decode(f.Raw)
	if err == nil {
		f.Pkt, f.Raw = pkt, nil
	}
	return err
}

// HostHandler receives frames delivered to a host NIC.
type HostHandler interface {
	HandleFrame(f *Frame)
}

// SwitchFabric is the surface a switch program needs from its fabric: where
// it is attached and how it emits frames toward hosts. *Network implements
// it for the single-switch rack; FatTree's leaf and spine ports implement it
// for the multi-switch deployments.
type SwitchFabric interface {
	AttachSwitch(h SwitchHandler)
	SwitchSend(f *Frame)
}

// HostFabric is the surface a host daemon needs from its fabric.
type HostFabric interface {
	AttachHost(id core.HostID, h HostHandler)
	HostSend(f *Frame)
	Uplink(id core.HostID) *Link
}

// SwitchHandler receives every frame entering the switch and drives
// forwarding through the Network's SwitchSend/switch-side API.
type SwitchHandler interface {
	HandleIngress(f *Frame)
}

// Fault configures per-direction fault injection on a link.
type Fault struct {
	// LossProb is the probability a frame is silently dropped.
	LossProb float64
	// DupProb is the probability a frame is delivered twice.
	DupProb float64
	// ReorderProb is the probability a frame is delayed by an extra random
	// amount up to ReorderDelay, letting later frames overtake it.
	ReorderProb  float64
	ReorderDelay time.Duration
	// CorruptProb is the probability a delivered copy of a frame is damaged
	// in flight: the packet is byte-encoded (wire.Codec Encode, CRC32C
	// trailer included), 1–3 random bits of the ASK-owned region are
	// flipped, and the damaged bytes — not the packet — are delivered
	// (Frame.Raw). Requires SetCodec; frames that cannot be byte-encoded
	// (TypeCtrl) are dropped instead, since their checksum would fail at
	// the receiver anyway.
	CorruptProb float64
	// TruncateProb is the probability a delivered copy is cut short at a
	// random byte boundary, modelling a runt frame; like corruption the
	// damaged bytes are delivered via Frame.Raw.
	TruncateProb float64
}

// LinkConfig describes one direction of a host-switch link.
type LinkConfig struct {
	// BandwidthBps is the line rate in bits per second.
	BandwidthBps float64
	// Propagation is the one-way propagation delay.
	Propagation time.Duration
	Fault       Fault
}

// DefaultLinkConfig returns the paper's 100 Gbps host links with a 1 µs
// one-way propagation delay and no faults.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{BandwidthBps: 100e9, Propagation: time.Microsecond}
}

// LinkStats counts traffic on one link direction.
type LinkStats struct {
	TxFrames    int64
	TxWireBytes int64
	TxGoodBytes int64
	Dropped     int64
	Duplicated  int64
	Reordered   int64
	Corrupted   int64
	Truncated   int64
}

// Link is one direction of a point-to-point link.
type Link struct {
	sim       *sim.Simulation
	cfg       LinkConfig
	deliver   func(*Frame)
	busyUntil sim.Time
	// fracNs carries sub-nanosecond serialization debt so the long-run
	// rate is exact despite integer-nanosecond timestamps.
	fracNs float64
	stats  LinkStats
	// override, when non-nil, replaces cfg.Fault at Send time — the chaos
	// orchestrator's runtime fault injection (internal/chaos).
	override *Fault
	// blackhole silently drops every frame after serialization accounting:
	// a severed cable, as opposed to probabilistic loss.
	blackhole bool
	// codec byte-encodes packets for the corruption fault path; zero-valued
	// (KPartBytes == 0) until the fabric's SetCodec is called, in which case
	// corruption degrades to a drop.
	codec wire.Codec
	// scratch is the per-link encode workspace for the corruption/truncation
	// fault path: a Send's packet is byte-encoded into it at most once, and
	// each damaged copy derives from it. Only the exact-size damaged buffer
	// that actually travels is allocated (it must outlive the Send).
	scratch []byte
	// deliverAny adapts deliver to the kernel's arg-carrying event form so
	// the frame-delivery hot path schedules without a per-event closure.
	deliverAny func(any)
	// xroute marks this link as a cross-shard cut (sharded fabrics): it
	// returns the lane simulation that owns the frame's next hop, and the
	// delivery event is injected there xdelay later than the normal arrival
	// time — the switch-latency hop the serial wiring schedules separately
	// on arrival, folded into the cut so the total cross-lane delay is the
	// full propagation + pipeline latency the group's lookahead declares.
	// nil on every link of a serial (ungrouped) fabric, which therefore
	// takes the exact pre-shard delivery path.
	xroute func(*Frame) *sim.Simulation
	xdelay time.Duration
	// Telemetry (telemetry.go): fault-outcome trace events. host/dir label
	// the link in traces; tr is nil unless the network is instrumented.
	tr   *telemetry.Tracer
	host string
	dir  string
}

func newLink(s *sim.Simulation, cfg LinkConfig, deliver func(*Frame)) *Link {
	if cfg.BandwidthBps <= 0 {
		panic("netsim: non-positive bandwidth")
	}
	l := &Link{sim: s, cfg: cfg, deliver: deliver}
	l.deliverAny = func(a any) { l.deliver(a.(*Frame)) }
	return l
}

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// SetFault replaces the link's fault model at runtime (chaos injection).
// It overrides the configured Fault until ClearFault.
func (l *Link) SetFault(f Fault) { fc := f; l.override = &fc }

// ClearFault restores the link's configured fault model.
func (l *Link) ClearFault() { l.override = nil }

// SetBlackhole turns the link into a black hole (every frame dropped after
// serialization accounting) or restores delivery.
func (l *Link) SetBlackhole(on bool) { l.blackhole = on }

// fault returns the effective fault model for the next Send.
func (l *Link) fault() Fault {
	if l.override != nil {
		return *l.override
	}
	return l.cfg.Fault
}

// NextFree returns the virtual time at which the transmitter finishes the
// currently queued frames; senders can SleepUntil it to model NIC
// backpressure instead of growing the queue without bound.
func (l *Link) NextFree() sim.Time { return l.busyUntil }

// Backlog returns how far ahead of now the transmitter is committed.
func (l *Link) Backlog() time.Duration {
	if l.busyUntil <= l.sim.Now() {
		return 0
	}
	return l.busyUntil.Sub(l.sim.Now())
}

// Throttle is the bounded TX ring (DPDK descriptor backpressure): a sender
// about to queue a frame behind more than bound of wire time sleeps until the
// backlog has drained to half of it — hysteresis, not to empty, so the wire
// never idles at line rate.
func (l *Link) Throttle(p *sim.Proc, bound time.Duration) {
	if l.Backlog() > bound {
		p.SleepUntil(l.NextFree().Add(-bound / 2))
	}
}

// serialize returns the wire time of n bytes at the link rate, carrying
// sub-nanosecond remainders across calls.
func (l *Link) serialize(n int) time.Duration {
	total := float64(n*8)/l.cfg.BandwidthBps*1e9 + l.fracNs
	d := time.Duration(total)
	l.fracNs = total - float64(d)
	return d
}

// Send enqueues f for transmission. Frames whose sender retains the packet
// (f.Owned == false) are cloned at delivery so receivers may mutate them
// freely without corrupting retransmission buffers; owned frames on the
// common single-copy, undamaged path are handed through by ownership
// transfer with no copy at all (clone elision).
func (l *Link) Send(f *Frame) {
	now := l.sim.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	done := start.Add(l.serialize(f.WireBytes))
	l.busyUntil = done
	l.stats.TxFrames++
	l.stats.TxWireBytes += int64(f.WireBytes)
	l.stats.TxGoodBytes += int64(f.GoodBytes)

	if l.blackhole {
		l.stats.Dropped++
		l.traceFault("frame_blackholed", f)
		f.Release() // owned frame dropped: nothing references the packet
		return
	}
	flt := l.fault()
	rng := l.sim.Rand()
	if flt.LossProb > 0 && rng.Float64() < flt.LossProb {
		l.stats.Dropped++
		l.traceFault("frame_dropped", f)
		f.Release()
		return
	}
	copies := 1
	if flt.DupProb > 0 && rng.Float64() < flt.DupProb {
		l.stats.Duplicated++
		l.traceFault("frame_duplicated", f)
		copies = 2
	}
	// handedOff flips when f itself is delivered (sole owned copy): from
	// that point f belongs to the receiver and must not be touched again.
	handedOff := false
	// encoded caches the one-time byte encoding of f for this Send; with a
	// duplicated-and-damaged frame both copies derive from it instead of
	// re-encoding per copy.
	var encoded []byte
	haveEncoded := false
	for i := 0; i < copies; i++ {
		arrive := done.Add(l.cfg.Propagation)
		if flt.ReorderProb > 0 && rng.Float64() < flt.ReorderProb {
			l.stats.Reordered++
			l.traceFault("frame_reordered", f)
			extra := time.Duration(rng.Int63n(int64(flt.ReorderDelay) + 1))
			arrive = arrive.Add(extra)
		}
		// Corruption and truncation are decided per delivered copy, so a
		// duplicate's sibling can arrive intact while this copy is damaged.
		damage := damageNone
		if flt.CorruptProb > 0 && rng.Float64() < flt.CorruptProb {
			l.stats.Corrupted++
			l.traceFault("frame_corrupted", f)
			damage = damageCorrupt
		} else if flt.TruncateProb > 0 && rng.Float64() < flt.TruncateProb {
			l.stats.Truncated++
			l.traceFault("frame_truncated", f)
			damage = damageTruncate
		}
		var g *Frame
		if damage != damageNone {
			if !haveEncoded {
				encoded = l.encodeForDamage(f)
				haveEncoded = true
			}
			g = l.damagedCopy(f, encoded, rng, damage, copies == 1 && !handedOff)
			if g == nil {
				continue // unencodable: damage degrades to a drop
			}
			if g == f {
				handedOff = true
			}
		} else if f.Owned && copies == 1 {
			// Clone elision: the sender relinquished the frame and this is
			// its only delivery — hand it through untouched.
			g = f
			handedOff = true
		} else if f.Raw != nil {
			// An already-damaged frame forwarded without decoding (e.g. by a
			// switch in a mode that doesn't inspect it): the raw bytes travel
			// on, deep-copied so receivers stay independent.
			g = &Frame{Src: f.Src, Dst: f.Dst, WireBytes: f.WireBytes, GoodBytes: f.GoodBytes,
				Raw: append([]byte(nil), f.Raw...), Owned: true}
		} else {
			g = NewFrame()
			g.Src, g.Dst, g.WireBytes, g.GoodBytes = f.Src, f.Dst, f.WireBytes, f.GoodBytes
			g.Pkt, g.Owned = f.Pkt.ClonePooled(), true
		}
		if l.xroute != nil {
			l.xroute(g).InjectCall(l.sim, arrive.Add(l.xdelay), l.deliverAny, g)
		} else {
			l.sim.AtCall(arrive, l.deliverAny, g)
		}
	}
	if !handedOff {
		// Every delivered copy was a clone (or dropped): a free-list frame is
		// done, and if the sender relinquished f its packet is unreferenced.
		f.Release()
	}
}

// damage kinds for one delivered copy.
const (
	damageNone = iota
	damageCorrupt
	damageTruncate
)

// encodeForDamage byte-encodes f once per Send into the link's scratch
// buffer (wire.Codec Encode layout, CRC32C trailer included). It returns nil
// when the frame cannot be encoded — no codec installed, or an opaque
// TypeCtrl payload — in which case damage degrades to a drop. For frames
// already carrying raw bytes the raw buffer itself serves as the source.
func (l *Link) encodeForDamage(f *Frame) []byte {
	if f.Raw != nil {
		return f.Raw
	}
	if l.codec.KPartBytes <= 0 || f.Pkt.Type == wire.TypeCtrl {
		return nil
	}
	buf, err := l.codec.AppendEncode(l.scratch[:0], f.Pkt)
	if err != nil {
		return nil
	}
	l.scratch = buf[:0] // retain capacity for the next damaged Send
	return buf
}

// damagedCopy builds the damaged-bytes frame for one delivered copy: either
// 1–3 random bit flips over the ASK-owned region (header + payload + CRC
// trailer; the opaque Ethernet/IP padding is excluded because flips there
// are semantically inert) or truncation at a random byte boundary. encoded
// is the Send-wide encoding from encodeForDamage (nil = undecodable, the
// damage becomes a drop). When the frame is owned and this is its sole
// delivery, a raw frame is damaged in place with no copy; otherwise the
// damaged bytes get their own exact-size buffer, since they must stay
// stable until the receiver consumes them while the scratch buffer is
// recycled on the next Send.
func (l *Link) damagedCopy(f *Frame, encoded []byte, rng *rand.Rand, kind int, sole bool) *Frame {
	if encoded == nil {
		return nil
	}
	inPlace := sole && f.Owned && f.Raw != nil
	if kind == damageTruncate {
		if len(encoded) == 0 {
			// Nothing left to cut; the (already empty) bytes travel as-is.
			return l.rawCopy(f, encoded, inPlace)
		}
		cut := rng.Intn(len(encoded))
		if inPlace {
			f.Raw = f.Raw[:cut]
			return f
		}
		g := l.rawCopy(f, encoded, false)
		g.Raw = g.Raw[:cut]
		return g
	}
	span := (len(encoded) - wire.EthIPBytes) * 8
	if span <= 0 {
		return l.rawCopy(f, encoded, inPlace) // too short to hold ASK bytes; already undecodable
	}
	g := l.rawCopy(f, encoded, inPlace)
	for flips := 1 + rng.Intn(3); flips > 0; flips-- {
		pos := wire.EthIPBytes*8 + rng.Intn(span)
		g.Raw[pos/8] ^= 1 << (pos % 8)
	}
	return g
}

// rawCopy returns the frame that will carry damaged bytes: f itself when the
// damage may be applied in place, or a fresh frame with its own copy of buf.
func (l *Link) rawCopy(f *Frame, buf []byte, inPlace bool) *Frame {
	if inPlace {
		return f
	}
	return &Frame{Src: f.Src, Dst: f.Dst, WireBytes: f.WireBytes, GoodBytes: f.GoodBytes,
		Raw: append([]byte(nil), buf...), Owned: true}
}

// port is the pair of directed links for one host.
type port struct {
	up   *Link // host -> switch
	down *Link // switch -> host
	host HostHandler
}

// newPort attaches host h on simulation s: frames it sends arrive at
// toSwitch, frames sent down arrive at its HandleFrame.
func newPort(s *sim.Simulation, cfg LinkConfig, c wire.Codec, h HostHandler, toSwitch func(*Frame)) *port {
	p := &port{host: h, up: newLink(s, cfg, toSwitch)}
	p.down = newLink(s, cfg, func(f *Frame) { p.host.HandleFrame(f) })
	p.up.codec, p.down.codec = c, c
	return p
}

// Network is the single-switch fabric.
type Network struct {
	sim *sim.Simulation
	// SwitchLatency is the fixed pipeline traversal latency applied to
	// every frame entering the switch before the handler sees it.
	SwitchLatency time.Duration
	handler       SwitchHandler
	ports         map[core.HostID]*port
	defaultLink   LinkConfig
	codec         wire.Codec
	// unroutable counts switch egress frames whose destination host is not
	// attached (routingMisses).
	unroutable routingMisses
	// ingressAny is the arg-carrying event adapter for the switch-latency
	// hop, bound once so the per-frame schedule allocates no closure.
	ingressAny func(any)
	// tel is the observability sink (telemetry.go); zero unless Instrument
	// was called.
	tel telemetry.Sink
}

// New creates a network on s where every subsequently attached host gets a
// link with the given configuration.
func New(s *sim.Simulation, link LinkConfig) *Network {
	n := &Network{
		sim:           s,
		SwitchLatency: 800 * time.Nanosecond,
		ports:         make(map[core.HostID]*port),
		defaultLink:   link,
	}
	n.ingressAny = func(a any) { n.handler.HandleIngress(a.(*Frame)) }
	return n
}

// Sim returns the simulation the network runs on.
func (n *Network) Sim() *sim.Simulation { return n.sim }

// SetCodec installs the byte codec used by the corruption fault path
// (Fault.CorruptProb/TruncateProb) on every attached and future link. Until
// it is called, corruption degrades to frame loss because links cannot
// byte-encode packets without knowing KPartBytes.
func (n *Network) SetCodec(c wire.Codec) {
	n.codec = c
	// Assigning the same codec to every port commutes; no event is
	// scheduled here, so this iteration's order cannot escape.
	//askcheck:allow(simdeterminism)
	for _, p := range n.ports {
		p.up.codec, p.down.codec = c, c
	}
}

// AttachSwitch installs the switch program. Must be called before traffic.
func (n *Network) AttachSwitch(h SwitchHandler) { n.handler = h }

// AttachHost connects a host with the default link configuration.
func (n *Network) AttachHost(id core.HostID, h HostHandler) {
	n.AttachHostLink(id, h, n.defaultLink)
}

// AttachHostLink connects a host with a specific link configuration.
func (n *Network) AttachHostLink(id core.HostID, h HostHandler, cfg LinkConfig) {
	if _, dup := n.ports[id]; dup {
		panic(fmt.Sprintf("netsim: host %d attached twice", id))
	}
	p := newPort(n.sim, cfg, n.codec, h, func(f *Frame) {
		if n.handler == nil {
			panic("netsim: frame arrived with no switch attached")
		}
		n.sim.AfterCall(n.SwitchLatency, n.ingressAny, f)
	})
	n.ports[id] = p
	n.instrumentPort(id, p)
}

// HostSend transmits a frame from its Src host toward the switch.
func (n *Network) HostSend(f *Frame) {
	p, ok := n.ports[f.Src]
	if !ok {
		panic(fmt.Sprintf("netsim: send from unattached host %d", f.Src))
	}
	p.up.Send(f)
}

// SwitchSend transmits a frame from the switch to f.Dst; a frame addressed
// to an unattached host is a routing miss.
func (n *Network) SwitchSend(f *Frame) {
	p, ok := n.ports[f.Dst]
	if !ok {
		n.unroutable.drop(n.tel.Tr, f)
		return
	}
	p.down.Send(f)
}

// routingMisses is the one routing-miss policy of every switch egress, the
// rack's and the fat-tree's leaves and spines: a frame whose destination is
// not attached is counted and dropped, not a panic. With checksum
// verification disabled (fault-injection hook) corruption can forge a
// destination, and a real switch routing table drops what it cannot match.
type routingMisses int64

func (m *routingMisses) drop(tr *telemetry.Tracer, f *Frame) {
	*m++
	if tr != nil {
		tr.EmitNote(telemetry.CompNetsim, "frame_unroutable", f.Task(), fmt.Sprintf("dst=%d", f.Dst))
	}
	f.Release() // dropped at the routing table: the packet is unreferenced
}

// Unroutable returns the number of switch egress frames dropped because
// their destination host was not attached.
func (n *Network) Unroutable() int64 { return int64(n.unroutable) }

// Uplink returns the host-to-switch link of a host (for stats/backpressure).
func (n *Network) Uplink(id core.HostID) *Link { return n.ports[id].up }

// Downlink returns the switch-to-host link of a host.
func (n *Network) Downlink(id core.HostID) *Link { return n.ports[id].down }

// Hosts returns the IDs of all attached hosts in ascending order (sorted so
// callers that iterate hosts stay deterministic across runs).
func (n *Network) Hosts() []core.HostID {
	ids := make([]core.HostID, 0, len(n.ports))
	for id := range n.ports {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ForwardingSwitch is a trivial SwitchHandler that forwards every frame to
// its destination: the "NoAggr" rack used by baselines, and — attached to a
// FatTree spine — the forwarding core of the §7 multi-rack deployment.
type ForwardingSwitch struct{ Net SwitchFabric }

// HandleIngress implements SwitchHandler.
func (fs *ForwardingSwitch) HandleIngress(f *Frame) { fs.Net.SwitchSend(f) }
