// Package hostd implements the ASK host daemon (§3.1): a per-server service
// that exchanges key-value data with applications through shared memory,
// packs tuples into multi-key packets following the ordered key-space
// partition (§3.2.2), drives the sliding-window reliable transport toward
// the switch (§3.3), aggregates residue tuples the switch could not absorb,
// triggers shadow-copy swaps (§3.4), and fetches and merges switch state at
// task teardown.
//
// A daemon runs one control channel and Config.DataChannels data channels.
// Channels are persistent: they are registered with the switch controller at
// boot and serve every task of the host's applications for the daemon's
// lifetime, each bound to one CPU-model thread (§4).
package hostd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/wire"
)

// Controller is the switch control-plane interface (implemented by
// internal/switchd, adapted in the public ask package).
type Controller interface {
	// RegisterFlowAt registers a flow whose next sequence number is start —
	// 0 at boot, mid-stream when re-attaching after a switch reboot — and
	// returns the live incarnation's epoch: control RPCs land on whatever
	// switch is up NOW, which may be newer than the reboot the caller is
	// recovering from (detection lag), and the sender must know which
	// incarnation will be absorbing its packets to replay correctly after
	// the next reboot.
	RegisterFlowAt(fk core.FlowKey, start uint32) (uint32, error)
	// AllocRegion reserves switch memory for a task and describes the
	// resulting allocation. Single-switch controllers return the zero
	// AllocInfo: full keyspace, fetch from the first-hop switch.
	AllocRegion(spec core.TaskSpec) (AllocInfo, error)
	FreeRegion(task core.TaskID) error
}

// chRange is a tenant's dedicated slice of the daemon's data channels.
type chRange struct{ lo, n int }

// AllocInfo describes a task's switch allocation to the receiver daemon.
// The zero value reproduces the single-switch behaviour exactly.
type AllocInfo struct {
	// Partition is the task's keyspace band (multi-tenant fabrics); senders
	// pack only keys of this band into switch slots, the rest take the
	// long-key bypass. Zero = the whole keyspace.
	Partition keyspace.Partition
	// FetchFrom lists the aggregation points holding pieces of the task's
	// switch state — fabric addresses the receiver must fetch (and clear)
	// at teardown, e.g. the sender leaves plus the spine on a fat-tree.
	// Nil/empty = the legacy first-hop switch (requests addressed to the
	// receiver itself, consumed by the switch on the path).
	FetchFrom []core.HostID
}

// Stats counts daemon-level activity. It is a point-in-time view over
// the daemon's telemetry instruments (metrics.go).
type Stats struct {
	TuplesSent      int64 // tuples handed to the network (short+medium+long)
	LongTuplesSent  int64 // subset bypassing the switch
	PacketsSent     int64 // first transmissions of data/long-key packets
	ResidueTuples   int64 // tuples aggregated at this host as receiver
	SwitchTuples    int64 // tuples merged from switch fetches
	SwapsTriggered  int64
	PacketsReceived int64 // data/long-key packets processed as receiver
	// CorruptDropped counts inbound frames quarantined by the end-to-end
	// checksum check.
	CorruptDropped int64
	// SlotFill histograms transmitted data packets by live slot count
	// (bitmap population), the source of Fig. 8(b).
	SlotFill [65]int64
}

// Daemon is the per-host ASK service. Each Daemon is per-host (hence
// per-rack) state and lives on its leaf's lane of a sharded fabric: frames
// leave it only through the HostFabric interface, and control calls only
// through the Controller.
type Daemon struct {
	sim    *sim.Simulation
	net    netsim.HostFabric
	pool   *netsim.Pool // the run's free lists: every packet and frame the daemon sends or lets go of
	cpu    *cpumodel.Host
	cfg    core.Config
	layout *keyspace.Layout
	host   core.HostID
	ctrl   Controller
	// shortStarts and mediumStarts are groupStarts of a full slot array.
	shortStarts, mediumStarts wire.Bitmap

	channels []*dataChannel
	ctrlCh   *ctrlChannel

	// codec decodes frames that arrive as damaged raw bytes (netsim
	// corruption faults); SkipVerify mirrors Config.DisableChecksumVerify.
	codec wire.Codec

	// flowDedup is the receive window per remote flow (shared across tasks;
	// channels are persistent and multiplex tasks, §3.3).
	flowDedup map[core.FlowKey]*window.HostDedup

	recvTasks map[core.TaskID]*recvTask
	sendReady map[core.TaskID]*sendTask // submitted locally, awaiting notify
	notified  map[core.TaskID]taskNotify

	// tenantCh maps a tenant to its dedicated data-channel range
	// (SetTenantChannels); nil means the legacy global task→channel hash.
	tenantCh map[core.TenantID]chRange

	fetchReqs map[uint32]*fetchReq
	fetchFree []*fetchReq
	nextFetch uint32

	// Telemetry (metrics.go): instruments live on reg; met caches the
	// hot-path pointers; tel is the sink handed to per-channel windows.
	reg     *telemetry.Registry
	tr      *telemetry.Tracer
	tel     telemetry.Sink
	hostLbl telemetry.Label
	met     hostMetrics

	// Failover state (failover.go). epoch starts at 1 and tracks the switch
	// incarnation; all other fields are idle unless cfg.Failover is set.
	failover      bool
	epoch         uint32
	degraded      bool
	degradedAt    sim.Time
	recovering    bool
	recoveryGen   uint32
	stalled       bool
	probeSig      *sim.Signal
	probeSeq      uint32
	probeReplySeq uint32
	activity      int
	activitySig   *sim.Signal
	chRecoverSig  *sim.Signal
	activeSends   map[core.TaskID]*sendTask
}

// New boots a daemon on host, attaches it to the network, and registers its
// persistent data channels with the switch controller. tel is the cluster
// observability sink; the zero value gives the daemon a private registry
// so the Stats views still work, with tracing disabled.
func New(s *sim.Simulation, net netsim.HostFabric, cpu *cpumodel.Host, cfg core.Config, host core.HostID, ctrl Controller, tel telemetry.Sink) (*Daemon, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		sim:          s,
		net:          net,
		pool:         netsim.PoolOf(s),
		cpu:          cpu,
		cfg:          cfg,
		layout:       layout,
		host:         host,
		ctrl:         ctrl,
		flowDedup:    make(map[core.FlowKey]*window.HostDedup),
		recvTasks:    make(map[core.TaskID]*recvTask),
		sendReady:    make(map[core.TaskID]*sendTask),
		notified:     make(map[core.TaskID]taskNotify),
		fetchReqs:    make(map[uint32]*fetchReq),
		codec:        wire.NewCodec(cfg.KPartBytes).WithSkipVerify(cfg.DisableChecksumVerify),
		failover:     cfg.Failover,
		epoch:        1,
		probeSig:     sim.NewSignal(s),
		activitySig:  sim.NewSignal(s),
		chRecoverSig: sim.NewSignal(s),
		activeSends:  make(map[core.TaskID]*sendTask),
	}
	d.shortStarts, d.mediumStarts = groupStarts(layout, cfg.NumAAs)
	d.tel = tel
	d.initMetrics(tel)
	net.AttachHost(host, d)
	for i := 0; i < cfg.DataChannels; i++ {
		fk := core.FlowKey{Host: host, Channel: core.ChannelID(i)}
		ep, err := ctrl.RegisterFlowAt(fk, 0)
		if err != nil {
			return nil, fmt.Errorf("hostd: registering %v: %w", fk, err)
		}
		ch := newDataChannel(d, fk)
		ch.regEpoch = ep
		d.channels = append(d.channels, ch)
	}
	d.ctrlCh = newCtrlChannel(d)
	if d.failover {
		s.Spawn(fmt.Sprintf("probe-h%d", host), d.probeLoop)
	}
	return d, nil
}

// Stats returns a snapshot of the daemon counters (atomic reads of the
// registry instruments).
func (d *Daemon) Stats() Stats {
	m := &d.met
	s := Stats{
		TuplesSent:      m.tuplesSent.Value(),
		LongTuplesSent:  m.longTuplesSent.Value(),
		PacketsSent:     m.packetsSent.Value(),
		ResidueTuples:   m.residueTuples.Value(),
		SwitchTuples:    m.switchTuples.Value(),
		SwapsTriggered:  m.swapsTriggered.Value(),
		PacketsReceived: m.packetsReceived.Value(),
		CorruptDropped:  m.corruptDropped.Value(),
	}
	for i, c := range m.slotFill {
		s.SlotFill[i] = c.Value() // nil counters read 0
	}
	return s
}

// dedupFor returns the receive window for a remote flow.
func (d *Daemon) dedupFor(fk core.FlowKey) *window.HostDedup {
	dd, ok := d.flowDedup[fk]
	if !ok {
		dd = window.NewHostDedup(d.cfg.Window)
		d.flowDedup[fk] = dd
	}
	return dd
}

// HandleFrame implements netsim.HostHandler: classify and either handle
// inline (window bookkeeping — its CPU cost is folded into the originating
// packet's PacketIOCost, see cpumodel calibration) or queue for a channel
// thread (packet processing with real CPU cost).
func (d *Daemon) HandleFrame(f *netsim.Frame) {
	if d.stalled {
		f.Release() // crashed daemon: inbound frames are lost
		return
	}
	// End-to-end integrity check (§3.3 failure model): frames damaged in
	// flight arrive as raw bytes; a checksum failure quarantines the frame
	// before any field — including the epoch beacon — is interpreted. The
	// drop looks like a loss to the sender, whose retransmission (or the
	// replay protocol during failover) recovers the tuples.
	wasRaw, err := f.Admit(d.codec)
	if err != nil {
		d.quarantine(f, err.Error())
		return
	}
	pkt := f.Pkt
	// Every switch-stamped packet doubles as an epoch beacon; a fresher
	// epoch triggers recovery synchronously, BEFORE the packet itself is
	// processed, so e.g. a post-reboot FIN never races its own invalidation.
	d.observeEpoch(pkt.Epoch)
	switch pkt.Type {
	case wire.TypeAck:
		switch pkt.AckFor {
		case wire.TypeSwap:
			if t := d.recvTasks[pkt.Task]; t != nil {
				t.onSwapAck(pkt.Seq)
			}
		case wire.TypeFetch:
			if fr := d.fetchReqs[pkt.Seq]; fr != nil {
				fr.cleared = true
				fr.progress.Fire()
			}
		case wire.TypeCtrl:
			d.ctrlCh.win.Ack(pkt.Seq)
		default: // data, long-key, FIN acks → the sender window
			if pkt.Flow.Host == d.host && int(pkt.Flow.Channel) < len(d.channels) {
				d.channels[pkt.Flow.Channel].acked(pkt.Seq)
			}
		}
		f.Release() // handled inline; nothing retains the ACK
	case wire.TypeFetchReply:
		if fr := d.fetchReqs[pkt.Seq]; fr != nil {
			fr.addChunk(pkt)
		}
		f.Release() // addChunk copied the entries out
	case wire.TypeCtrl:
		d.ctrlCh.rx.push(f) // queues what the control handler reads and releases the frame
	case wire.TypeProbeReply:
		if window.SeqLess(d.probeReplySeq, pkt.Seq) {
			d.probeReplySeq = pkt.Seq
		}
		d.probeSig.Fire()
		f.Release()
	case wire.TypeData, wire.TypeLongKey, wire.TypeFin, wire.TypeReplay:
		// Acknowledge at the transport layer immediately — processing
		// happens asynchronously on a channel thread, and holding the ACK
		// behind CPU work would trip the sender's fine-grained 100 µs
		// timeout into spurious retransmissions whenever receive queues
		// build. Duplicates are still filtered at processing time, so
		// exactly-once aggregation is unaffected; the packet is owned by
		// the daemon once acknowledged.
		d.send(pkt.Flow.Host, d.pool.NewAck(pkt), 0, true)
		// Spread receive processing across channel threads by flow. The
		// queue copies out the header and the live slots and releases the
		// frame and its packet now; the channel's receive chain merges later.
		idx := (int(pkt.Flow.Host)*31 + int(pkt.Flow.Channel)) % len(d.channels)
		d.channels[idx].rx.push(f)
	default:
		if wasRaw {
			// Corruption forged a type a host never receives and
			// verification let it through: quarantine instead of crashing.
			d.quarantine(f, "forged type")
			return
		}
		// Swap/Fetch are switch-terminated and never reach a host.
		panic(fmt.Sprintf("hostd: unexpected packet %v at host %d", pkt.Type, d.host))
	}
}

// quarantine counts and drops a frame the integrity check rejected.
func (d *Daemon) quarantine(f *netsim.Frame, why string) {
	d.met.corruptDropped.Inc()
	d.tr.EmitNote(telemetry.CompHostd, "corrupt_drop", f.Task(), why)
	f.Release()
}

// send transmits a packet from this host — the one place a daemon builds a
// frame. owned says nothing here keeps a reference to pkt after the call (a
// fresh ACK, probe or request clone): the link may then hand the frame
// through by ownership transfer (clone elision) and the receiver releases
// it. A packet the caller RETAINS (window retransmission buffers, failover
// history) is sent with owned false and cloned by the link at delivery.
func (d *Daemon) send(dst core.HostID, pkt *wire.Packet, goodBytes int, owned bool) {
	f := d.pool.NewFrame()
	f.Src, f.Dst, f.Pkt = d.host, dst, pkt
	f.WireBytes, f.GoodBytes, f.Owned = pkt.WireBytes(d.cfg.KPartBytes), goodBytes, owned
	if d.stalled {
		f.Release() // crashed daemon: lost before the wire; an owned packet is recycled
		return
	}
	d.net.HostSend(f)
}

// residue visits, in slot order, the slots of every tuple of a queued data
// (or replay) packet that the eff bitmap selects: the one slot of a short
// key, the coalesced group of a medium one. run holds the groups live in the
// packet's bitmap b back to back (rxQueue.push), and width is the packet's
// slot count. eff is normally b itself; under failover it is b minus the bits
// the receiver already merged (claimBits), always a subset of b. Nothing is
// built per tuple.
func (d *Daemon) residue(run []wire.Slot, b, eff wire.Bitmap, width int, visit func(group []wire.Slot)) {
	short, medium := d.groupStarts(width)
	n := 0
	for s := b & short; s != 0; s &= s - 1 {
		if s&-s&eff != 0 { // the lowest set bit, a short tuple's slot, is selected
			visit(run[n : n+1])
		}
		n++
	}
	m := d.cfg.MediumSegs
	for s := b & medium; s != 0; s &= s - 1 {
		if s&-s&eff != 0 {
			visit(run[n : n+m])
		}
		n += m
	}
}

// groupStarts is the package's groupStarts for the daemon's layout, read
// from the daemon for a full slot array.
func (d *Daemon) groupStarts(n int) (short, medium wire.Bitmap) {
	if n == d.cfg.NumAAs {
		return d.shortStarts, d.mediumStarts
	}
	return groupStarts(d.layout, n)
}

// groupStarts returns the bits that start a tuple's slot group in a packet
// of n slots: every short slot, and the first slot of every medium group.
// A medium group that runs past the slot array — a frame truncated in
// flight, admitted only with verification off — has no start.
func groupStarts(l *keyspace.Layout, n int) (short, medium wire.Bitmap) {
	cfg := l.Config()
	shortSlots, m := l.ShortSlots(), cfg.MediumSegs
	short = wire.Bitmap(1)<<uint(min(shortSlots, n)) - 1
	for g := range cfg.MediumGroups {
		if first := shortSlots + g*m; first+m <= n {
			medium = medium.Set(first)
		}
	}
	return short, medium
}

// ChannelStats returns the sender-window counters of every data channel
// (index = channel id).
func (d *Daemon) ChannelStats() []window.SenderStats {
	out := make([]window.SenderStats, len(d.channels))
	for i, ch := range d.channels {
		out[i] = ch.win.Stats()
	}
	return out
}
