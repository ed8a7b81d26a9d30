package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/pisa"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/tenancy"
	"repro/internal/window"
	"repro/internal/wire"
	"repro/internal/workload"
)

// micro is one layer micro-timing: a testing.Benchmark body driven through
// the layer's public functions only, reported as time per call and,
// where named, heap allocations per call.
type micro struct {
	name   string // time-per-op metric
	unit   string // "ns/op" or "ms/op"
	allocs string // allocs-per-op metric, "" when not reported
	fn     func(b *testing.B)
	// per divides ns/op when one benchmark op covers several units of the
	// thing named (e.g. one fetch scans many rows); 0 means 1.
	per float64
	// lanes is the GOMAXPROCS the body runs at; 0 means 1, like the serial
	// workloads (see pinProcs).
	lanes int
}

var microBenchmarks = []micro{
	{name: "sim.event_ns", unit: "ns/op", allocs: "sim.event_allocs", fn: benchSimEvent},
	{name: "sim.timer_stop_ns", unit: "ns/op", fn: benchSimTimerStop},
	{name: "sim.proc_switch_ns", unit: "ns/op", fn: benchSimProcSwitch},
	{name: "sim.signal_wake_ns", unit: "ns/op", fn: benchSimSignalWake},
	{name: "sim.shard_window_ns", unit: "ns/op", fn: func(b *testing.B) { benchShardWindow(b, false) }, lanes: 2},
	{name: "sim.shard_inject_ns", unit: "ns/op", fn: func(b *testing.B) { benchShardWindow(b, true) }, lanes: 2},
	{name: "netsim.hop_ns", unit: "ns/op", allocs: "netsim.hop_allocs", fn: func(b *testing.B) { benchNetsimHop(b, netsim.Fault{}) }},
	{name: "netsim.hop_corrupt_ns", unit: "ns/op", fn: func(b *testing.B) { benchNetsimHop(b, netsim.Fault{CorruptProb: 1}) }},
	{name: "wire.encode_ns", unit: "ns/op", fn: benchWireEncode},
	{name: "wire.decode_ns", unit: "ns/op", fn: benchWireDecode},
	{name: "wire.pool_cycle_ns", unit: "ns/op", fn: benchWirePool},
	{name: "pisa.pass_ns", unit: "ns/op", fn: benchPisaPass},
	{name: "switchd.ingress_absorb_ns", unit: "ns/op", allocs: "switchd.ingress_allocs", fn: func(b *testing.B) { benchSwitchIngress(b, ingressAbsorb) }},
	{name: "switchd.ingress_forward_ns", unit: "ns/op", fn: func(b *testing.B) { benchSwitchIngress(b, ingressForward) }},
	{name: "switchd.ingress_dup_ns", unit: "ns/op", fn: func(b *testing.B) { benchSwitchIngress(b, ingressDup) }},
	{name: "switchd.fetch_row_ns", unit: "ns/op", fn: benchSwitchFetch, per: fetchRows * 32},
	{name: "window.sender_cycle_ns", unit: "ns/op", fn: benchWindowSender},
	{name: "window.seen_observe_ns", unit: "ns/op", fn: func(b *testing.B) {
		s := window.NewCompactSeen(256)
		for i := 0; i < b.N; i++ {
			s.Observe(uint32(i))
		}
	}},
	{name: "window.dedup_observe_ns", unit: "ns/op", fn: func(b *testing.B) {
		d := window.NewHostDedup(256)
		for i := 0; i < b.N; i++ {
			d.Observe(uint32(i))
		}
	}},
	{name: "hostd.tx_tuple_ns", unit: "ns/op", allocs: "hostd.tx_tuple_allocs", fn: benchHostdTx},
	{name: "hostd.rx_frame_ns", unit: "ns/op", allocs: "hostd.rx_frame_allocs", fn: benchHostdRx},
	{name: "keyspace.place_ns", unit: "ns/op", fn: benchKeyspacePlace},
	{name: "core.result_merge_ns", unit: "ns/op", fn: benchResultMerge},
	{name: "tenancy.admit_release_ns", unit: "ns/op", fn: benchTenancy},
	{name: "ask.cluster_build_ms", unit: "ms/op", fn: benchClusterBuild, per: 1e6},
}

// runMicro runs every micro-benchmark for about benchtime each (once, when
// benchtime is zero) and returns the per-layer values by metric name.
func runMicro(benchtime time.Duration) (map[string]float64, error) {
	arg := benchtime.String()
	if benchtime <= 0 {
		arg = "1x"
	}
	if err := flag.Set("test.benchtime", arg); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, m := range microBenchmarks {
		restore := pinProcs(max(m.lanes, 1))
		r := testing.Benchmark(m.fn)
		restore()
		if r.N == 0 {
			return nil, fmt.Errorf("micro-benchmark %s failed", m.name)
		}
		per := m.per
		if per == 0 {
			per = 1
		}
		out[m.name] = float64(r.T.Nanoseconds()) / float64(r.N) / per
		if m.allocs != "" {
			out[m.allocs] = float64(r.MemAllocs) / float64(r.N)
		}
	}
	return out, nil
}

// benchWords is a small vocabulary of natural-language-length keys.
var benchWords = func() []string {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = workload.Word(i, workload.NaturalLanguage(0))
	}
	return keys
}()

// benchSimEvent: one op is one AfterCall plus its firing, with 64 chains alive
// so the heap has a realistic depth.
func benchSimEvent(b *testing.B) {
	s := sim.New(1)
	left := b.N
	var tick func(any)
	tick = func(any) {
		if left > 0 {
			left--
			s.AfterCall(time.Duration(1+left%7), tick, nil)
		}
	}
	for k := 0; k < 64; k++ {
		s.AfterCall(1, tick, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// benchSimTimerStop: one op arms a retransmit-style timer, stops the previous
// one and lets the kernel reap it lazily — the window sender's steady state.
func benchSimTimerStop(b *testing.B) {
	s := sim.New(1)
	left := b.N
	var prev sim.Timer
	noop := func(any) {}
	var tick func(any)
	tick = func(any) {
		prev.Stop()
		prev = s.AfterCall(100*time.Microsecond, noop, nil)
		if left > 0 {
			left--
			s.AfterCall(time.Microsecond, tick, nil)
		}
	}
	s.AfterCall(1, tick, nil)
	b.ResetTimer()
	s.Run(0)
}

// benchSimProcSwitch: one op is one Proc.Sleep round trip (park, event,
// dispatch) — the cost the data path pays three to four times per packet.
func benchSimProcSwitch(b *testing.B) {
	s := sim.New(1)
	s.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	s.Run(0)
}

// benchSimSignalWake: one op is a Signal.Fire from event context waking a
// proc that immediately waits again.
func benchSimSignalWake(b *testing.B) {
	s := sim.New(1)
	sg := sim.NewSignal(s)
	s.Spawn("waiter", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(sg)
		}
	})
	left := b.N
	var tick func(any)
	tick = func(any) {
		sg.Fire()
		if left > 0 {
			left--
			s.AfterCall(1, tick, nil)
		}
	}
	s.AfterCall(1, tick, nil)
	b.ResetTimer()
	s.Run(0)
}

// benchShardWindow: one op is one conservative window of a 2-lane group with
// one event per lane; with inject, lane 0 also mails one call to lane 1.
func benchShardWindow(b *testing.B, inject bool) {
	const look = time.Microsecond
	root := sim.New(1)
	g := sim.NewShardGroup(root, 2, look)
	noop := func(any) {}
	for i := 0; i < 2; i++ {
		lane, other := g.Lane(i), g.Lane(1-i)
		left := b.N
		var tick func(any)
		tick = func(any) {
			if inject && lane == g.Lane(0) {
				other.InjectCall(lane, lane.Now().Add(look), noop, nil)
			}
			if left > 0 {
				left--
				lane.AfterCall(look, tick, nil)
			}
		}
		lane.AfterCall(look, tick, nil)
	}
	b.ResetTimer()
	root.Run(0)
}

// releaseHost is a host NIC that recycles whatever it receives.
type releaseHost struct{ next func() }

func (h *releaseHost) HandleFrame(f *netsim.Frame) {
	f.Release()
	if h.next != nil {
		h.next()
	}
}

// benchNetsimHop: one op carries a full data packet host → ForwardingSwitch →
// host: two link sends, the switch-latency hop and the delivery clone. With
// CorruptProb 1 every copy is byte-encoded, damaged and delivered raw.
func benchNetsimHop(b *testing.B, fault netsim.Fault) {
	cfg := core.DefaultConfig()
	link := netsim.DefaultLinkConfig()
	link.Fault = fault
	s := sim.New(1)
	n := netsim.New(s, link)
	n.SetCodec(wire.NewCodec(cfg.KPartBytes))
	n.AttachSwitch(&netsim.ForwardingSwitch{Net: n})
	pkt, _ := fullDataPackets(cfg)
	wireBytes := pkt.WireBytes(cfg.KPartBytes)
	left := b.N
	send := func() {
		if left > 0 {
			left--
			n.HostSend(&netsim.Frame{Src: 0, Dst: 1, Pkt: pkt, WireBytes: wireBytes})
		}
	}
	n.AttachHost(0, &releaseHost{})
	n.AttachHost(1, &releaseHost{next: send})
	for k := 0; k < 8; k++ {
		send()
	}
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// fullDataPackets builds two data packets with every slot live and a
// different key in each slot, by placing natural-language words through the
// keyspace layout exactly as the packetizer does.
func fullDataPackets(cfg core.Config) (a, b *wire.Packet) {
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		panic(err) // DefaultConfig is valid
	}
	pkts := [2]*wire.Packet{}
	for i := range pkts {
		pkts[i] = &wire.Packet{Type: wire.TypeData, Task: 1, Flow: core.FlowKey{Host: 1}, Slots: make([]wire.Slot, cfg.NumAAs)}
	}
	for rank := 0; pkts[1].Bitmap.Count() < cfg.NumAAs; rank++ {
		pl := layout.Place(workload.Word(rank, workload.NaturalLanguage(0)))
		if pl.Class == keyspace.Long {
			continue
		}
		for _, p := range pkts {
			if p.Bitmap.Test(pl.FirstSlot) {
				continue
			}
			for j := 0; j < pl.Segs; j++ {
				p.Slots[pl.FirstSlot+j] = wire.Slot{KPart: pl.KParts[j]}
				p.Bitmap = p.Bitmap.Set(pl.FirstSlot + j)
			}
			p.Slots[pl.FirstSlot+pl.Segs-1].Val = 1
			break
		}
	}
	return pkts[0], pkts[1]
}

func benchWireEncode(b *testing.B) {
	cfg := core.DefaultConfig()
	c := wire.NewCodec(cfg.KPartBytes)
	pkt, _ := fullDataPackets(cfg)
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = c.AppendEncode(buf[:0], pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWireDecode(b *testing.B) {
	cfg := core.DefaultConfig()
	c := wire.NewCodec(cfg.KPartBytes)
	pkt, _ := fullDataPackets(cfg)
	buf, err := c.Encode(pkt)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := c.Decode(buf)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}

func benchWirePool(b *testing.B) {
	pkt, _ := fullDataPackets(core.DefaultConfig())
	for i := 0; i < b.N; i++ {
		pkt.ClonePooled().Release()
	}
}

// benchPisaPass: one op is one ASK-shaped pipeline pass of 35 register
// read-modify-writes (max_seq, seen, 32 aggregators, PktState).
func benchPisaPass(b *testing.B) {
	p := pisa.NewPipeline(pisa.DefaultConfig())
	maxSeq := p.MustAddArray(0, "max_seq", 512, 32)
	seen := p.MustAddArray(1, "seen", 512*256, 1)
	var aas []*pisa.RegisterArray
	for i := 0; i < 32; i++ {
		aas = append(aas, p.MustAddArray(2+i/4, fmt.Sprintf("aa%d", i), 32768, 64))
	}
	pktState := p.MustAddArray(10, "pkt_state", 512*256, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := p.Begin()
		seq := uint32(i)
		maxSeq.RMW(ps, 0, func(cur uint64) (uint64, uint64) { return uint64(seq), 0 })
		seen.RMW(ps, int(seq%256), func(cur uint64) (uint64, uint64) {
			next, _ := window.SeenUpdate(cur, (seq/256)&1 == 1)
			return next, 0
		})
		for j, aa := range aas {
			aa.RMW(ps, (i*31+j*7)&32767, func(cur uint64) (uint64, uint64) { return cur + 1, 1 })
		}
		pktState.RMW(ps, int(seq%256), func(cur uint64) (uint64, uint64) { return 0xffffffff, 0 })
	}
}

// sinkFabric is a SwitchFabric that recycles everything the switch emits.
type sinkFabric struct{}

func (sinkFabric) AttachSwitch(netsim.SwitchHandler) {}
func (sinkFabric) SwitchSend(f *netsim.Frame)        { f.Release() }

// benchSwitch builds a switch on a sink fabric with one registered flow and a
// region of rows rows for task 1.
func benchSwitch(b *testing.B, rows int) (*switchd.Switch, core.Config) {
	cfg := core.DefaultConfig()
	sw, err := switchd.New(sim.New(1), sinkFabric{}, cfg, switchd.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sw.RegisterFlow(core.FlowKey{Host: 1}); err != nil {
		b.Fatal(err)
	}
	if _, err := sw.AllocRegion(1, 0, core.OpSum, rows); err != nil {
		b.Fatal(err)
	}
	return sw, cfg
}

const (
	ingressAbsorb  = iota // every tuple matches its aggregator: packet consumed, ACK emitted
	ingressForward        // every tuple conflicts: packet forwarded whole
	ingressDup            // retransmission: seen hit, PktState restore, ACK
)

// benchSwitchIngress: one op is one full 32-slot data packet through
// Switch.HandleIngress on the chosen path.
func benchSwitchIngress(b *testing.B, path int) {
	rows := 0
	if path == ingressForward {
		rows = 2 // one row per copy: the second packet's keys all collide with the first's
	}
	sw, cfg := benchSwitch(b, rows)
	first, second := fullDataPackets(cfg)
	full := first.Bitmap
	send := func(p *wire.Packet, seq uint32) {
		p.Seq, p.Bitmap = seq, full
		sw.HandleIngress(&netsim.Frame{Src: 1, Dst: 0, Pkt: p, WireBytes: p.WireBytes(cfg.KPartBytes)})
	}
	send(first, 0) // reserves the aggregators
	pkt := first
	if path == ingressForward {
		pkt = second
	}
	f := &netsim.Frame{Src: 1, Dst: 0, Pkt: pkt, WireBytes: pkt.WireBytes(cfg.KPartBytes)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Bitmap = full
		if path != ingressDup {
			pkt.Seq = uint32(i + 1)
		}
		sw.HandleIngress(f)
	}
}

// fetchRows is the size of one shadow copy in benchSwitchFetch.
const fetchRows = 512

// benchSwitchFetch: one op is one snapshot fetch of a fetchRows-row copy
// across all 32 aggregator arrays; reported per row scanned.
func benchSwitchFetch(b *testing.B) {
	sw, cfg := benchSwitch(b, 2*fetchRows)
	first, _ := fullDataPackets(cfg)
	sw.HandleIngress(&netsim.Frame{Src: 1, Dst: 0, Pkt: first, WireBytes: first.WireBytes(cfg.KPartBytes)})
	req := &wire.Packet{Type: wire.TypeFetch, Task: 1, Flow: core.FlowKey{Host: 0, Channel: core.ChannelID(cfg.DataChannels)}}
	f := &netsim.Frame{Src: 0, Dst: 0, Pkt: req, WireBytes: req.WireBytes(cfg.KPartBytes)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.Seq = uint32(i + 1)
		sw.HandleIngress(f)
	}
}

// benchWindowSender: one op is Send (sequence, transmit, arm timer) plus the
// matching Ack (stop timer, advance base).
func benchWindowSender(b *testing.B) {
	s := sim.New(1)
	w := window.NewSender(s, 256, 100*time.Microsecond, func(*wire.Packet) {})
	pkt := &wire.Packet{Type: wire.TypeData}
	for i := 0; i < b.N; i++ {
		w.Send(pkt)
		w.Ack(pkt.Seq)
		if i&4095 == 4095 {
			s.Run(0) // reap the stopped timers, as a running simulation would
		}
	}
}

// ackFabric is a HostFabric whose far end acknowledges every non-ACK frame at
// once (one zero-delay event later) and delivers nothing else: enough for a
// daemon's send and control paths to run to quiescence without a switch.
type ackFabric struct {
	net     *netsim.Network // supplies the uplink the send loop inspects
	sim     *sim.Simulation
	host    netsim.HostHandler
	deliver func(any)
}

func newAckFabric(s *sim.Simulation) *ackFabric {
	a := &ackFabric{net: netsim.New(s, netsim.DefaultLinkConfig()), sim: s}
	a.deliver = func(f any) { a.host.HandleFrame(f.(*netsim.Frame)) }
	return a
}

func (a *ackFabric) AttachHost(id core.HostID, h netsim.HostHandler) {
	a.host = h
	a.net.AttachHost(id, h)
}

func (a *ackFabric) Uplink(id core.HostID) *netsim.Link { return a.net.Uplink(id) }

func (a *ackFabric) HostSend(f *netsim.Frame) {
	if f.Pkt.Type != wire.TypeAck {
		ack := wire.NewPacket()
		ack.Type, ack.AckFor = wire.TypeAck, f.Pkt.Type
		ack.Task, ack.Flow, ack.Seq = f.Pkt.Task, f.Pkt.Flow, f.Pkt.Seq
		a.sim.AfterCall(0, a.deliver, &netsim.Frame{Src: f.Dst, Dst: f.Src, Pkt: ack, Owned: true})
	}
	f.Release()
}

// nopController grants every control-plane request without a switch.
type nopController struct{}

func (nopController) RegisterFlow(core.FlowKey) (uint32, error)           { return 1, nil }
func (nopController) RegisterFlowAt(core.FlowKey, uint32) (uint32, error) { return 1, nil }
func (nopController) AllocRegion(core.TaskSpec) (hostd.AllocInfo, error) {
	return hostd.AllocInfo{}, nil
}
func (nopController) FreeRegion(core.TaskID) error { return nil }

// benchDaemon boots host 0's daemon on an ackFabric and submits task 1 with
// the given sender, so the daemon is ready to send (sender 0) or receive.
func benchDaemon(b *testing.B, sender core.HostID) (*sim.Simulation, *hostd.Daemon) {
	s := sim.New(1)
	d, err := hostd.New(s, newAckFabric(s), cpumodel.NewHost(s, cpumodel.DefaultCores),
		core.DefaultConfig(), 0, nopController{}, telemetry.Sink{})
	if err != nil {
		b.Fatal(err)
	}
	s.Spawn("driver", func(p *sim.Proc) {
		// Rows -1: transport-only, no switch region to allocate or fetch.
		spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{sender}, Op: core.OpSum, Rows: -1}
		if _, err := d.Submit(p, spec); err != nil {
			b.Error(err)
		}
	})
	s.Run(0)
	return s, d
}

// benchHostdTx: one op is one tuple through SubmitSend: packetizer, channel
// thread, window send and the ACK that frees its slot.
func benchHostdTx(b *testing.B) {
	s, d := benchDaemon(b, 0)
	i := 0
	d.SubmitSend(1, func() (core.KV, bool) {
		if i >= b.N {
			return core.KV{}, false
		}
		i++
		return core.KV{Key: benchWords[i&4095], Val: 1}, true
	})
	b.ReportAllocs()
	b.ResetTimer()
	s.Run(0)
}

// benchHostdRx: one op is one full residue packet through Daemon.HandleFrame
// and the receive thread that merges its tuples (run to quiescence).
func benchHostdRx(b *testing.B) {
	s, d := benchDaemon(b, 1)
	pkt, _ := fullDataPackets(core.DefaultConfig())
	f := &netsim.Frame{Src: 1, Dst: 0, Pkt: pkt, WireBytes: pkt.WireBytes(core.DefaultConfig().KPartBytes)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Seq = uint32(i)
		d.HandleFrame(f)
		s.Run(0)
	}
}

func benchKeyspacePlace(b *testing.B) {
	layout, err := keyspace.NewLayout(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = layout.Place(benchWords[i&4095])
	}
}

func benchResultMerge(b *testing.B) {
	r := make(core.Result)
	for i := 0; i < b.N; i++ {
		r.MergeKV(core.KV{Key: benchWords[i&4095], Val: 1}, core.OpSum)
	}
}

func benchTenancy(b *testing.B) {
	mgr, err := tenancy.NewManager([]tenancy.TenantSpec{{ID: 1, Weight: 3}, {ID: 2, Weight: 1}}, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	rows := mgr.Quota(1) / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mgr.Admit(1, rows); err != nil {
			b.Fatal(err)
		}
		mgr.Release(1, rows)
	}
}

func benchClusterBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ask.NewCluster(ask.Options{Hosts: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
