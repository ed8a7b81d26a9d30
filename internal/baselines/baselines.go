// Package baselines implements the host-only comparison systems of §5.1:
//
//   - PreAggr: every sender thread sorts its shard by key and merges
//     neighbours (pre-aggregation), ships the small intermediate result,
//     and the receiver merges partials — the strongest host-only
//     aggregation strategy (Fig. 7).
//   - NoAggr: pure reliable network transmission with 1500-byte MTU
//     packets and no aggregation — the transport-efficiency yardstick
//     (Fig. 13).
//
// Both run on the same simulated substrate (virtual time, byte-accurate
// links, calibrated CPU costs) as ASK, so completion times and goodput are
// directly comparable. The forwarding rack (NewRack), the MTU result
// shipper (ShipResult) and the merging receiver (Merger) are shared with the
// other host-only systems: mapreduce's Spark shuffles and training's
// parameter server.
package baselines

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/wire"
)

// MTUPayload is the usable payload of a 1500-byte MTU packet after headers.
const MTUPayload = wire.MTU - wire.HeaderBytes

// NewRack returns a simulation and a one-switch network on link whose switch
// only forwards: the rack every host-only system runs on.
func NewRack(seed int64, link netsim.LinkConfig) (*sim.Simulation, *netsim.Network) {
	s := sim.New(seed)
	n := netsim.New(s, link)
	n.AttachSwitch(&netsim.ForwardingSwitch{Net: n})
	return s, n
}

// ShipResult sends a result of bytes wire bytes from src to dst in MTU
// frames. Each frame costs one PacketIOCost on thread; a nil thread is a
// zero-copy (RDMA) sender and charges nothing. The last frame carries final
// as its payload, and an empty result still takes one frame.
func ShipResult(p *sim.Proc, n *netsim.Network, thread *cpumodel.Thread, src, dst core.HostID, bytes int, final any) {
	for sent := 0; ; sent += MTUPayload {
		if thread != nil {
			thread.Run(p, cpumodel.PacketIOCost)
		}
		pay := min(bytes-sent, MTUPayload)
		last := sent+pay >= bytes
		pkt := &wire.Packet{Type: wire.TypeCtrl}
		if last {
			pkt.Ctrl = final
		}
		n.HostSend(&netsim.Frame{
			Src: src, Dst: dst, Pkt: pkt,
			WireBytes: pay + wire.PerPacketOverhead,
			GoodBytes: pay,
		})
		if last {
			return
		}
	}
}

// Partial is one sender's share of one reducer's result: the payload of the
// final frame ShipResult sends to a Merger.
type Partial struct {
	Reducer int
	Data    core.Result
}

// Merger is a receiving host running reducers. Every arriving Partial
// spawns one merge proc, which costs HostAggregateCost per key on the
// host's cores; a reducer is done at the instant its expected-th merge
// finishes. Other frames carry bytes the wire already accounted.
type Merger struct {
	Results []core.Result
	DoneAt  []sim.Time

	s        *sim.Simulation
	cpu      *cpumodel.Host
	op       core.Op
	expected []int
	got      []int
}

// NewMerger returns a Merger on cpu with one reducer per entry of expected,
// reducer r waiting for expected[r] partials.
func NewMerger(s *sim.Simulation, cpu *cpumodel.Host, op core.Op, expected ...int) *Merger {
	m := &Merger{
		Results:  make([]core.Result, len(expected)),
		DoneAt:   make([]sim.Time, len(expected)),
		s:        s,
		cpu:      cpu,
		op:       op,
		expected: expected,
		got:      make([]int, len(expected)),
	}
	for r := range m.Results {
		m.Results[r] = make(core.Result)
	}
	return m
}

func (m *Merger) HandleFrame(f *netsim.Frame) {
	pt, ok := f.Pkt.Ctrl.(Partial)
	if !ok {
		return
	}
	m.s.Spawn("merge", func(p *sim.Proc) {
		m.cpu.Exec(p, time.Duration(len(pt.Data))*cpumodel.HostAggregateCost)
		m.Results[pt.Reducer].Merge(pt.Data, m.op)
		m.got[pt.Reducer]++
		if m.got[pt.Reducer] == m.expected[pt.Reducer] {
			m.DoneAt[pt.Reducer] = p.Now()
		}
	})
}

// PreAggrConfig parameterizes a PreAggr run.
type PreAggrConfig struct {
	Op      core.Op
	Threads int // mapper threads on the sender = reducer threads on the receiver
	Seed    int64
}

// PreAggrReport is the outcome of a PreAggr run.
type PreAggrReport struct {
	Result core.Result
	// JCT is the job completion time on virtual time.
	JCT time.Duration
	// SenderBusy/ReceiverBusy are aggregate core-busy times.
	SenderBusy   time.Duration
	ReceiverBusy time.Duration
	// IntermediateBytes is the shipped pre-aggregated volume.
	IntermediateBytes int64
}

// RunPreAggr executes the PreAggr baseline: one sending host with
// cfg.Threads mapper threads, one receiving host merging partials, both
// with the paper's 56 cores on 100 Gbps links.
func RunPreAggr(cfg PreAggrConfig, stream core.Stream) PreAggrReport {
	s, n := NewRack(cfg.Seed, netsim.DefaultLinkConfig())
	senderCPU := cpumodel.NewHost(s, cpumodel.DefaultCores)
	recvCPU := cpumodel.NewHost(s, cpumodel.DefaultCores)
	rx := NewMerger(s, recvCPU, cfg.Op, cfg.Threads)
	n.AttachHost(0, rx)
	n.AttachHost(1, senderHost{})

	report := PreAggrReport{}
	for _, shard := range shardStream(stream, cfg.Threads) {
		s.Spawn("mapper", func(p *sim.Proc) {
			// Sort-merge pre-aggregation: calibrated per-tuple cost.
			senderCPU.Exec(p, time.Duration(len(shard))*cpumodel.HostAggregateCost)
			// The modeled mapper sorts its shard and merges equal-key
			// neighbours (§5.1 footnote 7); its cost is the line above, and
			// every Op is commutative and associative, so the plain keyed
			// reduce produces the identical partial without the sort.
			partial := core.Reference(cfg.Op, shard)
			bytes := partial.WireBytes()
			report.IntermediateBytes += int64(bytes)
			ShipResult(p, n, senderCPU.NewThread(), 1, 0, bytes, Partial{Data: partial})
		})
	}
	s.Run(0)
	report.Result = rx.Results[0]
	report.JCT = time.Duration(rx.DoneAt[0])
	report.SenderBusy = senderCPU.BusyTime()
	report.ReceiverBusy = recvCPU.BusyTime()
	return report
}

// senderHost absorbs stray frames at a sending-only host.
type senderHost struct{}

func (senderHost) HandleFrame(*netsim.Frame) {}

// shardStream splits a stream round-robin into n sub-slices (mapper partitioning
// for the PreAggr baseline).
func shardStream(s core.Stream, n int) [][]core.KV {
	shards := make([][]core.KV, n)
	for i := 0; ; i++ {
		kv, ok := s()
		if !ok {
			return shards
		}
		shards[i%n] = append(shards[i%n], kv)
	}
}

// NoAggrConfig parameterizes a NoAggr transfer.
type NoAggrConfig struct {
	// Senders is the number of sending hosts (all toward one receiver).
	Senders int
	// ChannelsPerSender is the number of parallel sending threads/flows.
	ChannelsPerSender int
	// BytesPerSender is each sender's application payload volume.
	BytesPerSender int64
	// Link configures every host's link (zero value: 100 Gbps, 1 µs).
	Link netsim.LinkConfig
	Seed int64
}

// NoAggrReport is the outcome of a NoAggr transfer.
type NoAggrReport struct {
	Elapsed time.Duration
	// RxWireBytes/RxGoodBytes are measured at the receiver's downlink.
	RxWireBytes int64
	RxGoodBytes int64
	// SenderBusy is total sending-side core-busy time.
	SenderBusy time.Duration
	// PerSenderGoodbps is the average application goodput per sender.
	PerSenderGoodbps float64
	// GoodputGbps / WireGbps are receiver-side rates.
	GoodputGbps float64
	WireGbps    float64
}

// noAggrReceiver acknowledges every data frame.
type noAggrReceiver struct {
	net  *netsim.Network
	pool *netsim.Pool
}

func (r *noAggrReceiver) HandleFrame(f *netsim.Frame) {
	if f.Pkt.Type != wire.TypeData {
		return
	}
	r.net.HostSend(&netsim.Frame{Src: f.Dst, Dst: f.Pkt.Flow.Host, Pkt: r.pool.NewAck(f.Pkt), WireBytes: wire.PerPacketOverhead, Owned: true})
}

// noAggrSender routes ACKs back to its channel windows.
type noAggrSender struct {
	wins []*window.Sender
}

func (h *noAggrSender) HandleFrame(f *netsim.Frame) {
	if f.Pkt.Type == wire.TypeAck {
		h.wins[int(f.Pkt.Flow.Channel)].Ack(f.Pkt.Seq)
	}
}

// RunNoAggr executes a NoAggr bulk transfer and reports throughput. Hosts
// have the paper's 56 cores, and every channel a window of 256 packets, the
// paper's W.
func RunNoAggr(cfg NoAggrConfig) NoAggrReport {
	if cfg.Link.BandwidthBps == 0 {
		cfg.Link = netsim.DefaultLinkConfig()
	}
	const noAggrWindow = 256
	// Bulk MTU transfers queue far more wire time than ASK's small
	// packets, so the retransmission timeout must cover NIC queueing.
	const bulkTimeout = 2 * time.Millisecond
	s, n := NewRack(cfg.Seed, cfg.Link)
	n.AttachHost(0, &noAggrReceiver{net: n, pool: netsim.PoolOf(s)})

	var senderCPUs []*cpumodel.Host
	for i := 1; i <= cfg.Senders; i++ {
		host := core.HostID(i)
		cpu := cpumodel.NewHost(s, cpumodel.DefaultCores)
		senderCPUs = append(senderCPUs, cpu)
		h := &noAggrSender{}
		n.AttachHost(host, h)
		share := cfg.BytesPerSender / int64(cfg.ChannelsPerSender)
		for c := 0; c < cfg.ChannelsPerSender; c++ {
			flow := core.FlowKey{Host: host, Channel: core.ChannelID(c)}
			win := window.NewSender(s, noAggrWindow, bulkTimeout, func(pkt *wire.Packet) {
				n.HostSend(&netsim.Frame{
					Src: host, Dst: 0, Pkt: pkt,
					WireBytes: MTUPayload + wire.PerPacketOverhead,
					GoodBytes: MTUPayload,
				})
			})
			h.wins = append(h.wins, win)
			thread := cpu.NewThread()
			up := n.Uplink(host)
			s.Spawn("noaggr-tx", func(p *sim.Proc) {
				for sent := int64(0); sent < share; sent += MTUPayload {
					thread.Run(p, cpumodel.PacketIOCost)
					up.Throttle(p, 50*time.Microsecond)
					win.SendBlocking(p, &wire.Packet{Type: wire.TypeData, Flow: flow})
				}
				win.WaitIdle(p)
			})
		}
	}
	end := s.Run(0)
	down := n.Downlink(0).Stats()
	rep := NoAggrReport{
		Elapsed:     time.Duration(end),
		RxWireBytes: down.TxWireBytes,
		RxGoodBytes: down.TxGoodBytes,
	}
	for _, cpu := range senderCPUs {
		rep.SenderBusy += cpu.BusyTime()
	}
	secs := rep.Elapsed.Seconds()
	if secs > 0 {
		rep.GoodputGbps = float64(rep.RxGoodBytes) * 8 / secs / 1e9
		rep.WireGbps = float64(rep.RxWireBytes) * 8 / secs / 1e9
		rep.PerSenderGoodbps = rep.GoodputGbps / float64(cfg.Senders)
	}
	return rep
}
