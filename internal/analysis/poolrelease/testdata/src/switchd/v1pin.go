// Package v1pin pins call composition: a packet handed to a callee that
// provably drops it. Version 1 accepted any call argument as a hand-off;
// the analyzer composes the callee's release fact and reports the leak, so
// the want comment fails if that composition regresses.
package v1pin

import "repro/internal/wire"

// forget reads a field and drops the packet: not a release, not a
// retention.
func forget(p *wire.Packet) { _ = p.Seq }

func leakThroughForget() {
	pkt := wire.NewPacket() // want `poolrelease: packet acquired from the pool is neither released nor handed off`
	forget(pkt)
}
