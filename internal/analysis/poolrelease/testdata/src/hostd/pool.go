// Package pool exercises the poolrelease analyzer inside a pooled-path
// package (the directory name "hostd" puts it in scope). Since v2 the
// helpers must genuinely release or retain a packet for a hand-off to
// count: the analyzer composes escape summaries through the call graph.
package pool

import (
	"repro/internal/netsim"
	"repro/internal/wire"
)

type frame struct {
	Pkt   *wire.Packet
	Owned bool
}

var sink *wire.Packet

func send(f *frame)                                {}
func sendOwned(p *wire.Packet)                     { sink = p } // retains: global store
func stash(m map[int]*wire.Packet, p *wire.Packet) { m[0] = p }

// drop reads the packet and forgets it: NOT a hand-off (the v1 blind spot).
func drop(p *wire.Packet) { _ = p.Seq }

// dropDeep launders the drop through one more call level.
func dropDeep(p *wire.Packet) { drop(p) }

// releaseIndirect discharges the obligation in a callee.
func releaseIndirect(p *wire.Packet) { p.Release() }

// relay discharges it two levels down.
func relay(p *wire.Packet) { releaseIndirect(p) }

type notifier interface{ Notify(*wire.Packet) }

// dynamic hands the packet to an interface method: unresolvable, so the
// analyzer must stay conservative and accept it.
func dynamic(n notifier, p *wire.Packet) { n.Notify(p) }

func leakDiscarded() {
	wire.NewPacket() // want `poolrelease: packet-pool acquisition result is discarded`
}

func leakBlank(src *wire.Packet) {
	_ = src.ClonePooled() // want `poolrelease: packet-pool acquisition assigned to _`
}

func leakLocal() {
	pkt := wire.NewPacket() // want `poolrelease: packet acquired from the pool is neither released nor handed off`
	pkt.Type = wire.TypeAck
	pkt.Seq = 7
	_ = pkt.WireBytes(4) // read-only method call is not a hand-off
}

func leakClone(src *wire.Packet) {
	q := src.ClonePooled() // want `poolrelease: packet acquired from the pool is neither released nor handed off`
	q.Seq = 1
}

// leakViaCallee pins the v1 blind spot: the packet IS passed to a call,
// but the callee provably drops it, so v2 reports the acquisition.
func leakViaCallee() {
	pkt := wire.NewPacket() // want `poolrelease: packet acquired from the pool is neither released nor handed off`
	pkt.Type = wire.TypeAck
	drop(pkt)
}

// leakViaDeepCallee: the drop hides one more call level down.
func leakViaDeepCallee() {
	pkt := wire.NewPacket() // want `poolrelease: packet acquired from the pool is neither released nor handed off`
	dropDeep(pkt)
}

func okReleased() {
	pkt := wire.NewPacket()
	pkt.Type = wire.TypeAck
	pkt.Release()
}

func okReleasedViaAlias() {
	pkt := wire.NewPacket()
	q := pkt
	q.Release()
}

func okHandedToCall() {
	pkt := wire.NewPacket()
	sendOwned(pkt)
}

func okReleasedByCallee() {
	pkt := wire.NewPacket()
	releaseIndirect(pkt)
}

func okReleasedByRelay() {
	pkt := wire.NewPacket()
	relay(pkt)
}

func okDynamicHandoff(n notifier) {
	pkt := wire.NewPacket()
	dynamic(n, pkt)
}

func okFrameLiteral(src *wire.Packet) {
	q := src.ClonePooled()
	send(&frame{Pkt: q, Owned: true})
}

func okReturned() *wire.Packet {
	pkt := wire.NewPacket()
	pkt.Seq = 2
	return pkt
}

func okStored(m map[int]*wire.Packet) {
	pkt := wire.NewPacket()
	stash(m, pkt)
}

func okAssigned(dst *frame) {
	pkt := wire.NewPacket()
	dst.Pkt = pkt
}

func okNestedAcquisition(src *wire.Packet) {
	// Acquisitions nested in a hand-off context need no binding at all.
	send(&frame{Pkt: src.ClonePooled(), Owned: true})
}

func okClosureRelease() {
	pkt := wire.NewPacket()
	defer func() { pkt.Release() }()
	pkt.Seq = 9
}

func okAllowed() {
	//askcheck:allow(poolrelease)
	pkt := wire.NewPacket()
	pkt.Seq = 3
}

// Frames come from the free list beside the packets' (netsim.NewFrame) under
// the same obligation: released, or handed to something that releases them.
func leakFrame(pkt *wire.Packet) {
	f := netsim.NewFrame() // want `poolrelease: frame acquired from the pool is neither released nor handed off`
	f.Pkt = pkt
	_ = f.Corrupted() // read-only method call is not a hand-off
}

func okFrameReleased() {
	f := netsim.NewFrame()
	f.Release()
}

func okFrameSent(net netsim.HostFabric, pkt *wire.Packet) {
	f := netsim.NewFrame()
	f.Pkt, f.Owned = pkt, true
	net.HostSend(f) // interface dispatch: the fabric owns it now
}
