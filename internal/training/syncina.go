package training

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
)

// syncina simulates one synchronous in-network-aggregated gradient push:
// M workers stream the same sequence of gradient chunks; the switch holds a
// slot pool, sums contributions per chunk, and when all M have arrived it
// forwards one aggregated packet to the parameter server and acknowledges
// the workers, freeing the slot (§2.1.3 synchronous aggregation). A worker
// may have at most `slots` chunks outstanding, which is the synchronization
// the mechanism relies on.
//
// The value-stream payload itself is synthetic (the timing depends only on
// the byte geometry), but the aggregation counting is real: the run fails
// loudly if any chunk completes with the wrong contribution count.

// pushConfig parameterizes one push.
type pushConfig struct {
	workers int
	chunks  int // gradient length in packets per worker
	geom    geometry
	seed    int64
}

// psHostID is the parameter server's address; workers are 1..M.
const psHostID core.HostID = 0

// syncSwitch is the synchronous-INA switch program.
type syncSwitch struct {
	net     *netsim.Network
	workers int
	// count[c] tracks contributions of in-flight chunk c.
	count     map[uint32]int
	completed int
}

func (sw *syncSwitch) HandleIngress(f *netsim.Frame) {
	if f.Pkt.Type != wire.TypeData {
		sw.net.SwitchSend(f)
		return
	}
	c := f.Pkt.Seq
	sw.count[c]++
	if sw.count[c] > sw.workers {
		panic(fmt.Sprintf("training: chunk %d aggregated %d times with %d workers", c, sw.count[c], sw.workers))
	}
	if sw.count[c] < sw.workers {
		return // absorbed into the slot
	}
	// Complete: one aggregated packet to the PS, ACKs to every worker.
	delete(sw.count, c)
	sw.completed++
	out := &wire.Packet{Type: wire.TypeData, Seq: c}
	sw.net.SwitchSend(&netsim.Frame{Src: f.Src, Dst: psHostID, Pkt: out, WireBytes: f.WireBytes, GoodBytes: f.GoodBytes})
	for w := 1; w <= sw.workers; w++ {
		ack := &wire.Packet{Type: wire.TypeAck, AckFor: wire.TypeData, Seq: c}
		sw.net.SwitchSend(&netsim.Frame{Src: psHostID, Dst: core.HostID(w), Pkt: ack, WireBytes: wire.PerPacketOverhead})
	}
}

// pushWorker is one training worker's NIC-side state.
type pushWorker struct {
	host   core.HostID
	acked  uint32 // chunks completed (in order)
	ackSig *sim.Signal
}

func (w *pushWorker) HandleFrame(f *netsim.Frame) {
	if f.Pkt.Type != wire.TypeAck {
		return
	}
	// Synchronous aggregation completes chunks in order on fault-free
	// links; the window logic below depends on it.
	if f.Pkt.Seq+1 > w.acked {
		w.acked = f.Pkt.Seq + 1
	}
	w.ackSig.Fire()
}

// psSink counts aggregated traffic at the parameter server.
type psSink struct{ packets int }

func (p *psSink) HandleFrame(f *netsim.Frame) {
	if f.Pkt.Type == wire.TypeData {
		p.packets++
	}
}

// runPush simulates one gradient push and returns its duration.
func runPush(cfg pushConfig) (time.Duration, error) {
	s := sim.New(cfg.seed)
	n := netsim.New(s, netsim.DefaultLinkConfig())
	sw := &syncSwitch{net: n, workers: cfg.workers, count: make(map[uint32]int)}
	n.AttachSwitch(sw)
	ps := &psSink{}
	n.AttachHost(psHostID, ps)

	pktWire := cfg.geom.vals*4 + wire.PerPacketOverhead + cfg.geom.extra
	workers := make([]*pushWorker, cfg.workers)
	for wi := 1; wi <= cfg.workers; wi++ {
		w := &pushWorker{host: core.HostID(wi), ackSig: sim.NewSignal(s)}
		workers[wi-1] = w
		n.AttachHost(w.host, w)
		cpu := cpumodel.NewHost(s, cpumodel.DefaultCores)
		// Four NIC threads per worker share the packet-IO load (§4: the
		// daemon thread pool); each packet costs PacketIOCost on one.
		const nicThreads = 4
		up := n.Uplink(w.host)
		for t := 0; t < nicThreads; t++ {
			t := t
			thread := cpu.NewThread()
			s.Spawn(fmt.Sprintf("push-w%d-t%d", wi, t), func(p *sim.Proc) {
				for c := t; c < cfg.chunks; c += nicThreads {
					// Synchronous window: chunk c needs slot c mod slots,
					// free once chunk c-slots completed.
					for c >= cfg.geom.slots && w.acked < uint32(c-cfg.geom.slots+1) {
						p.Wait(w.ackSig)
					}
					thread.Run(p, cpumodel.PacketIOCost)
					up.Throttle(p, 50*time.Microsecond)
					pkt := &wire.Packet{Type: wire.TypeData, Seq: uint32(c)}
					n.HostSend(&netsim.Frame{
						Src: w.host, Dst: psHostID, Pkt: pkt,
						WireBytes: pktWire,
						GoodBytes: cfg.geom.vals * 4,
					})
				}
			})
		}
	}
	end := s.Run(0)
	if sw.completed != cfg.chunks {
		return 0, fmt.Errorf("training: %d of %d chunks completed", sw.completed, cfg.chunks)
	}
	if ps.packets != cfg.chunks {
		return 0, fmt.Errorf("training: PS received %d aggregated packets, want %d", ps.packets, cfg.chunks)
	}
	return time.Duration(end), nil
}

// bcastSwitch replicates parameter packets from the PS to every worker
// (the pull phase of the PS round under INA systems).
type bcastSwitch struct {
	net     *netsim.Network
	workers int
}

func (b *bcastSwitch) HandleIngress(f *netsim.Frame) {
	for w := 1; w <= b.workers; w++ {
		g := &netsim.Frame{Src: f.Src, Dst: core.HostID(w), Pkt: f.Pkt.Clone(), WireBytes: f.WireBytes, GoodBytes: f.GoodBytes}
		b.net.SwitchSend(g)
	}
}

// bcastSink counts received bytes at a worker.
type bcastSink struct{ bytes int64 }

func (b *bcastSink) HandleFrame(f *netsim.Frame) { b.bytes += int64(f.GoodBytes) }

// runMulticastPull simulates the PS broadcasting `bytes` of updated
// parameters to all workers via switch replication, returning its duration.
func runMulticastPull(workers int, bytes, seed int64) (time.Duration, error) {
	s := sim.New(seed)
	n := netsim.New(s, netsim.DefaultLinkConfig())
	n.AttachSwitch(&bcastSwitch{net: n, workers: workers})
	sinks := make([]*bcastSink, workers)
	for w := 1; w <= workers; w++ {
		sinks[w-1] = &bcastSink{}
		n.AttachHost(core.HostID(w), sinks[w-1])
	}
	n.AttachHost(psHostID, &psSink{})
	cpu := cpumodel.NewHost(s, cpumodel.DefaultCores)
	thread := cpu.NewThread()
	s.Spawn("ps-pull", func(p *sim.Proc) {
		up := n.Uplink(psHostID)
		for sent := int64(0); sent < bytes; sent += baselines.MTUPayload {
			thread.Run(p, cpumodel.PacketIOCost)
			up.Throttle(p, 50*time.Microsecond)
			n.HostSend(&netsim.Frame{
				Src: psHostID, Dst: core.HostID(1), // replicated by the switch
				Pkt:       &wire.Packet{Type: wire.TypeData},
				WireBytes: baselines.MTUPayload + wire.PerPacketOverhead,
				GoodBytes: baselines.MTUPayload,
			})
		}
	})
	end := s.Run(0)
	for w, sink := range sinks {
		if sink.bytes < bytes {
			return 0, fmt.Errorf("training: worker %d pulled %d of %d bytes", w+1, sink.bytes, bytes)
		}
	}
	return time.Duration(end), nil
}
