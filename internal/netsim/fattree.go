package netsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Fabric switch addresses. Leaves and spines are addressable endpoints on a
// fat-tree (fetch/swap requests name the aggregation point they read), so
// they get HostIDs from a reserved high range that real hosts must not use.
const (
	leafAddrBase  core.HostID = 0xF000
	spineAddrBase core.HostID = 0xF800
)

// LeafAddr returns the fabric address of leaf l.
func LeafAddr(l int) core.HostID { return leafAddrBase + core.HostID(l) }

// SpineAddr returns the fabric address of spine s.
func SpineAddr(s int) core.HostID { return spineAddrBase + core.HostID(s) }

// LeafIndex reports whether addr names a leaf among `leaves` and which.
func LeafIndex(addr core.HostID, leaves int) (int, bool) {
	if addr >= leafAddrBase && addr < leafAddrBase+core.HostID(leaves) {
		return int(addr - leafAddrBase), true
	}
	return 0, false
}

// SpineIndex reports whether addr names a spine among `spines` and which.
func SpineIndex(addr core.HostID, spines int) (int, bool) {
	if addr >= spineAddrBase && addr < spineAddrBase+core.HostID(spines) {
		return int(addr - spineAddrBase), true
	}
	return 0, false
}

// FatTree is the spine/leaf fabric: L leaves of hosts, S spines, and a full
// bipartite mesh of leaf↔spine links. Which tiers aggregate is a matter of
// what is attached: with an ASK program on both, a leaf aggregates traffic
// entering from its own hosts and residue crossing the fabric gets a second
// aggregation chance at the spine before reaching the receiver (hierarchical
// re-aggregation); with a ForwardingSwitch on a single spine the fabric is
// the §7 multi-rack deployment — TORs under a core that only forwards.
// Traffic arriving at a leaf FROM a spine follows §7's state-bounding rule
// either way — addressed to the leaf itself it enters the leaf's program
// (fetch/swap of that leaf's regions); addressed to a host it bypasses the
// program and is delivered directly.
//
// The one-switch rack stays a separate fabric (Network): it has no tier to
// configure, and bench/ is compiled against it.
//
// Every frame of a task crosses the fabric through one spine, chosen by
// Task ID (SpineFor), so a task's packet order is preserved end to end and
// its spine-side region lives on exactly one spine.
type FatTree struct {
	sim    *sim.Simulation
	leaves []*leafPort
	spines []*spinePort
	// hostPorts is indexed by host ID: a host's port, which knows its leaf,
	// or nil where none is attached.
	hostPorts  []*port
	hostLink   LinkConfig
	fabricLink LinkConfig
	codec      wire.Codec
	// leafDown / spineDown mirror the switches' crash state into the fabric
	// so routing can re-elect around dead spines and a dead leaf's
	// host-delivery path (which bypasses the switch program, §7) black-holes
	// like the program path does.
	leafDown  []bool
	spineDown []bool
	// group is non-nil for a sharded fabric (NewFatTreeSharded): each leaf
	// block and spine lives on a lane simulation and the leaf↔spine mesh is
	// mailbox cuts. hostPorts stays read-only after construction;
	// leafDown/spineDown are written only from root context (chaos), which
	// the group serializes.
	group *sim.ShardGroup
}

// leafPort is one leaf switch: the SwitchFabric its ASK program attaches
// to. Its state lives on the leaf's lane of a sharded build, and traffic
// leaves it only over the host links and the leaf↔spine mesh, which the
// sharded build rewires into mailbox cuts: a port never reaches a sibling
// port's state directly.
type leafPort struct {
	ft      *FatTree
	leaf    int
	handler SwitchHandler
	// ls is the simulation this leaf's state lives on (the fabric-wide one
	// for a serial build, the leaf's shard lane for a sharded build).
	ls *sim.Simulation
	// up[s] is this leaf's link to spine s.
	up []*Link
	// unroutable counts this leaf's egress routing misses (per port, so a
	// sharded build keeps the counter on the leaf's lane).
	unroutable routingMisses
}

// spinePort is one spine switch, on the spine's lane (see leafPort).
type spinePort struct {
	ft      *FatTree
	spine   int
	handler SwitchHandler
	// ls is the simulation this spine's state lives on (see leafPort.ls).
	ls *sim.Simulation
	// down[l] is this spine's link to leaf l.
	down       []*Link
	unroutable routingMisses
}

// NewFatTree builds the fabric. hostLink configures host↔leaf links,
// fabricLink the leaf↔spine links (typically fatter).
func NewFatTree(s *sim.Simulation, spines, leaves int, hostLink, fabricLink LinkConfig) *FatTree {
	return newFatTree(s, nil, spines, leaves, hostLink, fabricLink)
}

// NewFatTreeSharded builds the fabric partitioned into `shards` lanes
// under root's conservative shard group: leaves form contiguous lane
// blocks, spines are spread round-robin over the lanes, and the whole
// leaf↔spine mesh becomes mailbox cuts with lookahead
// fabricLink.Propagation + the switch latency. A request that EffectiveShards
// clamps to serial (shards <= 1, or a single leaf) returns a fabric built
// by the exact serial path and a nil group.
func NewFatTreeSharded(s *sim.Simulation, spines, leaves, shards int, hostLink, fabricLink LinkConfig) (*FatTree, *sim.ShardGroup) {
	eff := EffectiveShards(shards, leaves)
	if eff == 0 {
		return newFatTree(s, nil, spines, leaves, hostLink, fabricLink), nil
	}
	g := sim.NewShardGroup(s, eff, cutDelay(fabricLink))
	return newFatTree(s, g, spines, leaves, hostLink, fabricLink), g
}

func newFatTree(s *sim.Simulation, g *sim.ShardGroup, spines, leaves int, hostLink, fabricLink LinkConfig) *FatTree {
	if spines <= 0 || leaves <= 0 {
		panic("netsim: need at least one spine and one leaf")
	}
	if leaves > int(spineAddrBase-leafAddrBase) || spines > int(0x10000-int(spineAddrBase)) {
		panic("netsim: fat-tree exceeds the fabric address space")
	}
	ft := &FatTree{
		sim:        s,
		hostLink:   hostLink,
		fabricLink: fabricLink,
		leafDown:   make([]bool, leaves),
		spineDown:  make([]bool, spines),
		group:      g,
	}
	leafSim, spineSim := shardSims(g, leaves, spines)
	for l := 0; l < leaves; l++ {
		lp := &leafPort{ft: ft, leaf: l, ls: s}
		if leafSim != nil {
			lp.ls = leafSim[l]
		}
		ft.leaves = append(ft.leaves, lp)
	}
	for sp := 0; sp < spines; sp++ {
		spp := &spinePort{ft: ft, spine: sp, ls: s}
		if spineSim != nil {
			spp.ls = spineSim[sp]
		}
		ft.spines = append(ft.spines, spp)
	}
	// Full bipartite mesh: one directed link per (leaf, spine) per
	// direction, each delivering one switch hop after arrival. In a sharded
	// build every mesh link is also a mailbox cut; the static per-link target
	// degrades to a plain local schedule when both endpoints share a lane.
	mesh := func(from, to *sim.Simulation, deliver func(*Frame)) *Link {
		lk := newLink(from, fabricLink, defaultSwitchLatency, deliver)
		if g != nil {
			lk.xroute = func(*Frame) *sim.Simulation { return to }
		}
		return lk
	}
	for _, lp := range ft.leaves {
		lp.up = make([]*Link, spines)
		for sp, spp := range ft.spines {
			lp.up[sp] = mesh(lp.ls, spp.ls, spp.ingress)
		}
	}
	for _, spp := range ft.spines {
		spp.down = make([]*Link, leaves)
		for l, lp := range ft.leaves {
			spp.down[l] = mesh(spp.ls, lp.ls, lp.fromSpine)
		}
	}
	return ft
}

// Group returns the shard group of a sharded fabric (nil when serial).
func (ft *FatTree) Group() *sim.ShardGroup { return ft.group }

// LeafSim returns the simulation leaf l's state must be constructed on.
func (ft *FatTree) LeafSim(l int) *sim.Simulation { return ft.leaves[l].ls }

// SpineSim returns the simulation spine s's state must be constructed on.
func (ft *FatTree) SpineSim(s int) *sim.Simulation { return ft.spines[s].ls }

// SetCodec installs the byte codec used by the corruption fault path on
// every link in the fabric (host↔leaf and leaf↔spine, attached and future).
func (ft *FatTree) SetCodec(c wire.Codec) {
	ft.codec = c
	for _, lp := range ft.leaves {
		for _, l := range lp.up {
			l.codec = c
		}
	}
	for _, spp := range ft.spines {
		for _, l := range spp.down {
			l.codec = c
		}
	}
	for _, p := range ft.hostPorts {
		if p != nil {
			p.up.codec, p.down.codec = c, c
		}
	}
}

// Leaf returns leaf l's switch attachment point (a SwitchFabric).
func (ft *FatTree) Leaf(l int) SwitchFabric { return ft.leaves[l] }

// Spine returns spine s's switch attachment point (a SwitchFabric).
func (ft *FatTree) Spine(s int) SwitchFabric { return ft.spines[s] }

// LeafOf returns the leaf an attached host is attached to.
func (ft *FatTree) LeafOf(id core.HostID) int { return ft.hostPorts[id].leaf }

// SpineFor returns the spine that carries (and, for cross-leaf tasks, holds
// the re-aggregation region of) task t: the first LIVE candidate in the
// task-hashed probe order (h, h+1, ...). The choice is a pure function of
// the task ID and the global spine down-set, so every leaf routes a task's
// frames identically and a spine crash re-elects the same alternate
// everywhere at once. With every spine down the hashed candidate is
// returned unchanged — its frames black-hole at the crashed switch until a
// reboot heals the fabric.
func (ft *FatTree) SpineFor(t core.TaskID) int {
	h := int(uint32(t)) % len(ft.spines)
	for i := 0; i < len(ft.spines); i++ {
		if c := (h + i) % len(ft.spines); !ft.spineDown[c] {
			return c
		}
	}
	return h
}

// SetSpineDown marks spine s crashed (or healed) for routing: SpineFor
// re-elects around down spines.
func (ft *FatTree) SetSpineDown(s int, down bool) { ft.spineDown[s] = down }

// SetLeafDown marks leaf l crashed (or healed): frames arriving over its
// spine downlinks are dropped, including host-addressed deliveries that
// bypass the switch program.
func (ft *FatTree) SetLeafDown(l int, down bool) { ft.leafDown[l] = down }

// SpineIsDown reports spine s's routing down-state.
func (ft *FatTree) SpineIsDown(s int) bool { return ft.spineDown[s] }

// spineForFrame picks the uplink spine for a fabric-crossing frame.
func (ft *FatTree) spineForFrame(f *Frame) int {
	if f.Pkt == nil {
		return 0 // raw (damaged) frame: any deterministic choice works
	}
	return ft.SpineFor(f.Pkt.Task)
}

// AttachHostLeaf connects a host to leaf l.
func (ft *FatTree) AttachHostLeaf(l int, id core.HostID, h HostHandler) {
	if portAt(ft.hostPorts, id) != nil {
		panic(fmt.Sprintf("netsim: host %d attached twice", id))
	}
	if l < 0 || l >= len(ft.leaves) {
		panic(fmt.Sprintf("netsim: leaf %d out of range", l))
	}
	if id >= leafAddrBase {
		panic(fmt.Sprintf("netsim: host ID %#x collides with the fabric address range", id))
	}
	lp := ft.leaves[l]
	ft.hostPorts = growTo(ft.hostPorts, id)
	ft.hostPorts[id] = newPort(lp.ls, ft.hostLink, ft.codec, h, lp.ingress)
	ft.hostPorts[id].leaf = l
}

// HostSend transmits a frame from its Src host toward its leaf.
func (ft *FatTree) HostSend(f *Frame) {
	p := portAt(ft.hostPorts, f.Src)
	if p == nil {
		panic(fmt.Sprintf("netsim: send from unattached host %d", f.Src))
	}
	p.up.Send(f)
}

// Uplink returns a host's uplink (for backpressure and stats).
func (ft *FatTree) Uplink(id core.HostID) *Link { return ft.hostPorts[id].up }

// Downlink returns a host's downlink.
func (ft *FatTree) Downlink(id core.HostID) *Link { return ft.hostPorts[id].down }

// Unroutable returns the number of frames the fabric's switches dropped at
// egress because their destination was not attached (see routingMisses).
// Read it at quiescence: the counters live on the switches' lanes.
func (ft *FatTree) Unroutable() int64 {
	var n routingMisses
	for _, lp := range ft.leaves {
		n += lp.unroutable
	}
	for _, sp := range ft.spines {
		n += sp.unroutable
	}
	return int64(n)
}

// SpineUplink returns leaf l's link to spine s (for stats).
func (ft *FatTree) SpineUplink(l, s int) *Link { return ft.leaves[l].up[s] }

// ingress runs traffic entering from this leaf's own hosts through the
// leaf's switch program.
func (lp *leafPort) ingress(f *Frame) {
	if lp.handler == nil {
		panic(fmt.Sprintf("netsim: leaf %d has no switch attached", lp.leaf))
	}
	lp.handler.HandleIngress(f)
}

// fromSpine handles a frame arriving over a spine downlink: addressed to
// this leaf it enters the program (a fetch/swap of this leaf's regions
// relayed across the fabric); addressed to a host it bypasses the program
// (§7 state bounding) and is delivered directly.
func (lp *leafPort) fromSpine(f *Frame) {
	if lp.ft.leafDown[lp.leaf] {
		// A crashed leaf is a black hole for its whole linecard: the
		// host-delivery path below bypasses the switch program (so the
		// program's own down-check never sees these frames), and hosts behind
		// the leaf are unreachable either way.
		f.Release()
		return
	}
	if f.Dst == LeafAddr(lp.leaf) {
		lp.ingress(f)
		return
	}
	p := portAt(lp.ft.hostPorts, f.Dst)
	if p == nil || p.leaf != lp.leaf {
		panic(fmt.Sprintf("netsim: leaf %d asked to deliver to foreign host %d", lp.leaf, f.Dst))
	}
	p.down.Send(f)
}

// AttachSwitch implements SwitchFabric for the leaf.
func (lp *leafPort) AttachSwitch(h SwitchHandler) { lp.handler = h }

// SwitchSend implements SwitchFabric: the leaf's program emits a frame,
// which goes to a local host directly, to a named fabric switch, or across
// the task's spine toward a remote leaf.
func (lp *leafPort) SwitchSend(f *Frame) {
	ft := lp.ft
	if p := portAt(ft.hostPorts, f.Dst); p != nil {
		if p.leaf == lp.leaf {
			p.down.Send(f)
			return
		}
		lp.up[ft.spineForFrame(f)].Send(f)
		return
	}
	if s, ok := SpineIndex(f.Dst, len(ft.spines)); ok {
		lp.up[s].Send(f)
		return
	}
	if _, ok := LeafIndex(f.Dst, len(ft.leaves)); ok {
		// Another leaf: relay over the task's spine, which forwards it down.
		lp.up[ft.spineForFrame(f)].Send(f)
		return
	}
	lp.unroutable.drop(nil, f)
}

// ingress runs a frame through the spine's switch program.
func (sp *spinePort) ingress(f *Frame) {
	if sp.handler == nil {
		panic(fmt.Sprintf("netsim: spine %d has no switch attached", sp.spine))
	}
	sp.handler.HandleIngress(f)
}

// AttachSwitch implements SwitchFabric for the spine.
func (sp *spinePort) AttachSwitch(h SwitchHandler) { sp.handler = h }

// SwitchSend implements SwitchFabric: the spine's program emits a frame
// down toward its destination host's leaf (or a leaf itself, for relayed
// fetch/swap requests).
func (sp *spinePort) SwitchSend(f *Frame) {
	ft := sp.ft
	if p := portAt(ft.hostPorts, f.Dst); p != nil {
		sp.down[p.leaf].Send(f)
		return
	}
	if l, ok := LeafIndex(f.Dst, len(ft.leaves)); ok {
		sp.down[l].Send(f)
		return
	}
	sp.unroutable.drop(nil, f)
}
