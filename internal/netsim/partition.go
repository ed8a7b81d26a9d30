// Topology partitioner for the conservative parallel DES (DESIGN.md
// "Parallel DES"). The fat-tree is partitioned at its switch boundaries —
// leaves in contiguous lane blocks, spines round-robin; every host, switch,
// and intra-shard link is constructed on its lane's simulation, and the
// leaf↔spine links become mailbox cuts whose minimum model delay
// (propagation + switch pipeline latency) is the group's lookahead.
package netsim

import (
	"time"

	"repro/internal/sim"
)

// EffectiveShards clamps a requested shard count to what a topology with
// `blocks` partitionable units (leaves) supports. 0 means run
// serial: a request of one lane, or a topology too small to cut.
func EffectiveShards(requested, blocks int) int {
	if requested > blocks {
		requested = blocks
	}
	if requested <= 1 || blocks <= 1 {
		return 0
	}
	return requested
}

// laneOfBlock maps partition unit i of n to one of `shards` contiguous,
// balanced lane blocks (unit i -> lane i*shards/n). Contiguity keeps
// leaf neighbourhoods together, matching how the ask layer numbers
// hosts leaf-major.
func laneOfBlock(i, n, shards int) int {
	return i * shards / n
}

// ShardLayout describes the lane assignment of a sharded fabric, for the
// partitioner tests. A serial fabric reports the zero value (Lanes == 0).
type ShardLayout struct {
	// Lanes is the shard count (0 = serial).
	Lanes int
	// BlockLane maps leaf index to its lane.
	BlockLane []int
	// SpineLane maps spine index to its lane.
	SpineLane []int
	// CutLinks counts directed links rewired into cross-lane mailboxes.
	CutLinks int
	// Lookahead is the minimum cross-lane model delay the cuts guarantee.
	Lookahead time.Duration
}

// cutDelay returns the conservative lookahead of a fabric cut over links
// with the given config: one-way propagation plus the switch pipeline
// latency of the delivery. Serialization time is additive on top and
// therefore not part of the guarantee.
func cutDelay(link LinkConfig) time.Duration {
	return link.Propagation + defaultSwitchLatency
}

// shardSims resolves the per-block and per-spine lane simulations for a
// group, or (nil, nil) when the fabric is serial.
func shardSims(g *sim.ShardGroup, blocks, spines int) (blockSim []*sim.Simulation, spineSim []*sim.Simulation) {
	if g == nil {
		return nil, nil
	}
	blockSim = make([]*sim.Simulation, blocks)
	for i := range blockSim {
		blockSim[i] = g.Lane(laneOfBlock(i, blocks, g.Lanes()))
	}
	if spines > 0 {
		spineSim = make([]*sim.Simulation, spines)
		for s := range spineSim {
			// Spines are typically fewer than lanes; spread them round-robin
			// so two spines land on different lanes whenever possible.
			spineSim[s] = g.Lane(s % g.Lanes())
		}
	}
	return blockSim, spineSim
}
