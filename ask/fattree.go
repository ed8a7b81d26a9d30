package ask

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/switchd"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

// FatTreeOptions configures the spine/leaf deployment: L leaves of hosts and
// S spines, every switch running the ASK program, optionally shared by
// several tenants under weighted AA allocation.
type FatTreeOptions struct {
	Spines       int
	Leaves       int
	HostsPerLeaf int
	Config       core.Config
	// HostLink configures host↔leaf links, FabricLink the leaf↔spine links.
	HostLink   netsim.LinkConfig
	FabricLink netsim.LinkConfig
	Seed       int64
	// Tenants, when non-empty, partitions the keyspace and each switch's AA
	// rows between the listed tenants proportionally to weight. Task IDs must
	// then carry a listed tenant (core.MakeTaskID); admission control rejects
	// a tenant's over-quota regions with tenancy.OverloadError.
	Tenants []tenancy.TenantSpec
	// Telemetry enables the cluster-wide observability stack: a shared
	// metrics registry across switches (each labeled `switch` with its
	// fabric address), daemons, transport windows and the tenancy
	// allocator, a sim-clock trace ring, and a gauge sampler that runs while
	// tasks are active. Off, components fall back to private registries so
	// Stats accessors still work. The fabric's links are not instrumented.
	Telemetry bool
	// Shards, when > 1, partitions the fabric into that many parallel event
	// lanes of contiguous leaves (spines spread round-robin); the leaf↔spine
	// mesh becomes conservative mailbox cuts (DESIGN.md "Parallel DES").
	// Fault-free runs are byte-identical to the serial build; runs with
	// failover chaos are deterministic per (Seed, Shards) — the fabric-wide
	// control rendezvous the recovery path needs reorders same-window events
	// relative to serial. Values <= 1, or topologies with a single leaf,
	// take the exact serial code path (netsim.EffectiveShards). Shards > 1
	// with Telemetry is refused: lanes would stamp trace events with the
	// root's clock and interleave the trace ring in scheduling order.
	//
	// No command, experiment or soak sets it: it exists for bench/'s
	// fattree-sharded workload and the scheduler's own tests, and it goes
	// with the scheduler (ROADMAP "Delete the sharded scheduler").
	Shards int
}

// FatTreeCluster is a spine/leaf deployment: the Deployment over a fabric
// with hierarchical re-aggregation. A task's tuples are absorbed first at
// the sender's leaf, its cross-leaf residue gets a second chance at the
// task's spine, and the receiver merges the remaining residue plus the
// entries fetched from every aggregation point. Each tuple is absorbed at
// exactly one switch, so the partial aggregates compose without double
// counting.
//
// NewMultiRackCluster returns the same type configured as §7's TORs under a
// forwarding core. Renaming it, or folding the rack's Cluster into it, waits
// until bench/ stops compiling against both shells' topology fields.
type FatTreeCluster struct {
	Deployment
	Net    *netsim.FatTree
	Leaves []*switchd.Switch
	Spines []*switchd.Switch
	// Tenancy is the admission/partition manager; nil without Tenants.
	Tenancy *tenancy.Manager

	tenants []tenancy.TenantSpec
	allocs  map[core.TaskID]fatAlloc
	// fabricEpoch is the fabric-wide incarnation number (starts at 1). Every
	// switch outage event — crash AND reboot — bumps it and pushes it into
	// all live switches (see bumpFabricEpoch), so the whole fabric presents
	// hosts with one coherent epoch sequence.
	fabricEpoch uint32
	// taskPoints remembers every aggregation point a task was ever placed
	// at — past teardown and across the re-allocations an epoch bump forces —
	// so TaskSwitchStats sums exactly the switches that held its state.
	taskPoints map[core.TaskID][]core.HostID
	// receiverLeafOnly is the §7 multi-rack placement (NewMultiRackCluster):
	// a task's single region sits at the receiver's leaf, so a TOR holds task
	// state only for receivers in its own rack. Off, regions follow the
	// task's tree: every sender leaf plus its spine.
	receiverLeafOnly bool
}

// fatAlloc records where a task's regions live, for teardown, release and
// a re-attach within the same fabric epoch.
type fatAlloc struct {
	points []core.HostID
	part   keyspace.Partition
	rows   int
	tenant core.TenantID
}

// HostAt returns the host ID of slot i on leaf l.
func (o FatTreeOptions) HostAt(l, i int) core.HostID {
	return core.HostID(l*o.HostsPerLeaf + i)
}

// NewFatTreeCluster builds the deployment. Host IDs are assigned leaf-major:
// leaf l holds IDs [l·HostsPerLeaf, (l+1)·HostsPerLeaf). It returns an
// error only for invalid options (topology dimensions that are not positive
// or overflow the fabric address space, a Config that core.Config.Validate
// rejects — Failover with swaps among them — or a tenant configuration the
// keyspace cannot be partitioned for).
func NewFatTreeCluster(opts FatTreeOptions) (*FatTreeCluster, error) {
	return newFatTreeCluster(opts, false)
}

// newFatTreeCluster builds the fabric both exported constructors share. With
// forwardingCore the spine tier only forwards and regions sit at the
// receiver's leaf: the §7 multi-rack deployment (multirack.go).
func newFatTreeCluster(opts FatTreeOptions, forwardingCore bool) (*FatTreeCluster, error) {
	if opts.Spines <= 0 || opts.Leaves <= 0 || opts.HostsPerLeaf <= 0 {
		return nil, fmt.Errorf("ask: need positive Spines, Leaves and HostsPerLeaf")
	}
	// Switches are addressed from a reserved range above the host IDs; netsim
	// panics past it, so outside input is refused here.
	hostIDs, perTier := int(netsim.LeafAddr(0)), int(netsim.SpineAddr(0)-netsim.LeafAddr(0))
	if opts.Leaves > perTier || opts.Spines > perTier || opts.HostsPerLeaf > hostIDs/opts.Leaves {
		return nil, fmt.Errorf("ask: %d spines, %d leaves × %d hosts exceed the fabric address space (%d switches per tier, %d hosts)",
			opts.Spines, opts.Leaves, opts.HostsPerLeaf, perTier, hostIDs)
	}
	if opts.Telemetry && opts.Shards > 1 {
		return nil, fmt.Errorf("ask: Telemetry needs the serial scheduler, not %d shards: lanes would interleave the trace ring", opts.Shards)
	}
	defaults(&opts.Config, &opts.HostLink, &opts.FabricLink)
	fc := &FatTreeCluster{
		tenants:     opts.Tenants,
		allocs:      make(map[core.TaskID]fatAlloc),
		taskPoints:  make(map[core.TaskID][]core.HostID),
		fabricEpoch: 1,
		// The two halves of §7 go together: a core that only forwards, and
		// task state only at the receiver's TOR.
		receiverLeafOnly: forwardingCore,
	}
	fc.Deployment = newDeployment(fc, opts.Seed, opts.Config, opts.Telemetry)
	ft, _ := netsim.NewFatTreeSharded(fc.Sim, opts.Spines, opts.Leaves, opts.Shards, opts.HostLink, opts.FabricLink)
	ft.SetCodec(wire.NewCodec(opts.Config.KPartBytes))
	fc.Net = ft
	sink := fc.Tel.Sink()
	if len(opts.Tenants) > 0 {
		mgr, err := tenancy.NewManager(opts.Tenants, opts.Config)
		if err != nil {
			return nil, err
		}
		if fc.Tel != nil {
			mgr.Instrument(fc.Tel.Registry)
		}
		fc.Tenancy = mgr
	}
	for l := 0; l < opts.Leaves; l++ {
		lo := switchd.DefaultOptions()
		lo.Addr = netsim.LeafAddr(l)
		lo.Telemetry = sink
		// LeafSim/SpineSim are the switch's shard lane on a sharded build,
		// the fabric-wide simulation otherwise; each switch program schedules
		// only on its own lane.
		sw, err := switchd.New(ft.LeafSim(l), ft.Leaf(l), opts.Config, lo)
		if err != nil {
			return nil, fmt.Errorf("ask: leaf %d: %w", l, err)
		}
		fc.Leaves = append(fc.Leaves, sw)
	}
	for sp := 0; sp < opts.Spines; sp++ {
		if forwardingCore {
			// No switchd.Switch on the core: Spines stays empty, so the core
			// has no fabric address, takes no registrations and cannot crash.
			ft.Spine(sp).AttachSwitch(&netsim.ForwardingSwitch{Net: ft.Spine(sp)})
			continue
		}
		// A spine registers every host's flows, so its flow table bounds the
		// whole fabric's channels: past it, adding a host fails.
		so := switchd.DefaultOptions()
		// A spine's address selects the sequence-tagged seen: it aggregates
		// the leaves' conflict residuals, whose sequence numbers skip.
		so.Addr = netsim.SpineAddr(sp)
		so.Telemetry = sink
		sw, err := switchd.New(ft.SpineSim(sp), ft.Spine(sp), opts.Config, so)
		if err != nil {
			return nil, fmt.Errorf("ask: spine %d: %w", sp, err)
		}
		fc.Spines = append(fc.Spines, sw)
	}
	for l := 0; l < opts.Leaves; l++ {
		for i := 0; i < opts.HostsPerLeaf; i++ {
			d, err := fc.addHost(ft.LeafSim(l), leafFabric{ft, l}, opts.HostAt(l, i), fabricController{fc, l}, sink)
			if err != nil {
				return nil, err
			}
			if err := fc.assignTenantChannels(d); err != nil {
				return nil, err
			}
		}
	}
	return fc, nil
}

// assignTenantChannels dedicates a contiguous data-channel band to each
// tenant, sized by weight with the keyspace partitions' cut (keyspace.Cut),
// so one tenant's backlog never queues behind another's. Tenants whose cut
// rounds to zero channels keep the legacy global hash.
func (fc *FatTreeCluster) assignTenantChannels(d *hostd.Daemon) error {
	if fc.Tenancy == nil {
		return nil
	}
	weights := make([]int, len(fc.tenants))
	for i, t := range fc.tenants {
		weights[i] = t.Weight
	}
	band := keyspace.Cut(fc.cfg.DataChannels, weights)
	for i, t := range fc.tenants {
		if lo, hi := band[i], band[i+1]; hi > lo {
			if err := d.SetTenantChannels(t.ID, lo, hi-lo); err != nil {
				return err
			}
		}
	}
	return nil
}

// switchAt resolves a fabric address to its switch, nil when addr names
// none. Addresses recorded in allocs always resolve.
func (fc *FatTreeCluster) switchAt(addr core.HostID) *switchd.Switch {
	if sp, ok := netsim.SpineIndex(addr, len(fc.Spines)); ok {
		return fc.Spines[sp]
	}
	if l, ok := netsim.LeafIndex(addr, len(fc.Leaves)); ok {
		return fc.Leaves[l]
	}
	return nil
}

// leafFabric narrows the fat-tree to one leaf's host attach point.
type leafFabric struct {
	ft   *netsim.FatTree
	leaf int
}

func (lf leafFabric) AttachHost(id core.HostID, h netsim.HostHandler) {
	lf.ft.AttachHostLeaf(lf.leaf, id, h)
}
func (lf leafFabric) HostSend(f *netsim.Frame)           { lf.ft.HostSend(f) }
func (lf leafFabric) Uplink(id core.HostID) *netsim.Link { return lf.ft.Uplink(id) }

// fabricController is one host's control plane on the fat-tree: flows
// register at the host's own leaf and at every spine (any of which may
// carry the flow's fabric-crossing packets), and task regions are placed at
// every aggregation point on the task's tree.
//
// Every method here touches switches and cluster maps owned by other shard
// lanes, so on a sharded fabric each method first enters the group's
// control rendezvous: the calling lane suspends its window and the operation
// executes while no other lane runs. Recovery's rendezvous orders events
// differently from the serial build, which is why chaos runs are
// deterministic per shard count rather than byte-identical.
type fabricController struct {
	fc   *FatTreeCluster
	leaf int
}

// control enters the fabric-wide control rendezvous when the calling leaf's
// lane is inside a parallel window (a no-op on serial builds and in serial
// windows). Call as `defer c.control()()`.
//
// Setup never needs it: hostd.New registers a host's flows while the fabric
// is built, before any window runs, and the first allocation is driven by a
// root proc, which forces serial windows. Three methods are entered from a
// lane inside a parallel window, and for each a sharded golden fails under
// `go test -race` when its rendezvous is removed:
//   - FreeRegion, at a receiver's teardown (TestFatTreeShardedMirroredTeardown);
//   - RegisterFlowAt, at a sender's failover recovery
//     (TestFatTreeShardedSpineOutageDeterministic);
//   - AllocRegion, at a receiver's failover recovery
//     (TestFatTreeShardedReceiverLeafOutage).
func (c fabricController) control() func() {
	if g := c.fc.Net.Group(); g != nil {
		return g.EnterControlFrom(c.fc.Net.LeafSim(c.leaf))
	}
	return func() {}
}

func (c fabricController) RegisterFlowAt(fk core.FlowKey, start uint32) (uint32, error) {
	defer c.control()()
	if c.fc.Leaves[c.leaf].Down() {
		// The host's own attach point is gone: the flow cannot register at
		// its first hop, so recovery proceeds host-only (the daemon replays
		// unregistered) until the heal-time epoch bump re-triggers it.
		return 0, &core.DegradedError{Op: "register-flow", Addr: netsim.LeafAddr(c.leaf), Attempts: 1}
	}
	if _, err := c.fc.Leaves[c.leaf].RegisterFlowAt(fk, start); err != nil {
		return 0, err
	}
	for sp, sw := range c.fc.Spines {
		if sw.Down() {
			// A crashed spine has no control plane; its reboot wipes flow
			// state, and the heal-time epoch bump re-registers everything.
			continue
		}
		if _, err := sw.RegisterFlowAt(fk, start); err != nil {
			return 0, fmt.Errorf("ask: registering flow at spine %d: %w", sp, err)
		}
	}
	return c.fc.fabricEpoch, nil
}

func (c fabricController) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	defer c.control()()
	return c.fc.allocRegion(c.leaf, spec)
}

func (c fabricController) FreeRegion(task core.TaskID) error {
	defer c.control()()
	return c.fc.freeRegion(task)
}

// allocRegion admits the task against its tenant's quota and places one
// region per aggregation point: each distinct sender leaf (ascending), plus
// the task's spine when any sender sits on a different leaf than the
// receiver — or, under the multi-rack placement, the receiver's leaf alone.
// The returned AllocInfo carries the tenant's keyspace partition and the
// fetch points in allocation order.
//
// A task that already holds a placement gets that placement back, charged
// once: every fabric-epoch bump empties allocs, so an entry is always the
// live incarnation's, and its switches would answer a second allocation
// idempotently anyway. Freeing and re-placing instead would clear tuples
// absorbed under the live registration, which replay skips.
//
// Crashed switches are skipped rather than failing the allocation — this is
// the re-attach path during a fabric outage, and partial in-network
// coverage still beats none: a dead sender leaf carries no traffic anyway,
// and with no live spine (or a spine allocation failure) the task degrades
// to leaf-only absorption with the cross-leaf residue merged at the host.
// Only when EVERY aggregation point is down does the call fail, with a
// *core.DegradedError the receiver retries under a bounded backoff budget.
func (fc *FatTreeCluster) allocRegion(recvLeaf int, spec core.TaskSpec) (hostd.AllocInfo, error) {
	if a, ok := fc.allocs[spec.ID]; ok {
		return hostd.AllocInfo{Partition: a.part, FetchFrom: a.points}, nil
	}
	var part keyspace.Partition
	tenant := spec.ID.Tenant()
	rows := spec.Rows
	if rows == 0 {
		// Pin the default size here rather than letting each switch pick its
		// own (switchd's default depends on that switch's free rows, which
		// differ across the tree): a quarter of the tenant's quota, or of the
		// pool without tenancy, even so shadow copies split it.
		if fc.Tenancy != nil && tenant != 0 {
			rows = fc.Tenancy.Quota(tenant) / 4
		} else {
			rows = fc.cfg.AARows / 4
		}
		rows &^= 1
		if rows < 2 {
			rows = 2
		}
	}
	if fc.Tenancy != nil {
		if tenant == 0 {
			return hostd.AllocInfo{}, fmt.Errorf("ask: task %d has no tenant on a tenant-partitioned fabric (use core.MakeTaskID)", spec.ID)
		}
		p, err := fc.Tenancy.Partition(tenant)
		if err != nil {
			return hostd.AllocInfo{}, err
		}
		part = p
		// Admission control: the quota models one switch's rows — a task
		// occupies the same row count at every switch on its tree, and
		// partitions are identical across switches.
		if err := fc.Tenancy.Admit(tenant, rows); err != nil {
			return hostd.AllocInfo{}, err
		}
	}
	leaves := []int{recvLeaf}
	if !fc.receiverLeafOnly {
		leaves = nil
		for _, s := range spec.Senders {
			if l := fc.Net.LeafOf(s); !slices.Contains(leaves, l) {
				leaves = append(leaves, l)
			}
		}
		sort.Ints(leaves)
	}
	cross := false
	skipped := 0
	points := make([]core.HostID, 0, len(leaves)+1)
	for _, l := range leaves {
		if l != recvLeaf {
			cross = true
		}
		if fc.Leaves[l].Down() {
			skipped++
			continue
		}
		points = append(points, netsim.LeafAddr(l))
	}
	release := func() {
		if fc.Tenancy != nil {
			fc.Tenancy.Release(tenant, rows)
		}
	}
	var done []core.HostID
	unwind := func() {
		for _, a := range done {
			// Unwind is best-effort; the switches just allocated cannot
			// refuse to free.
			_ = fc.switchAt(a).FreeRegion(spec.ID)
		}
		release()
	}
	for _, addr := range points {
		if _, err := fc.switchAt(addr).AllocRegionPartition(spec.ID, spec.Receiver, spec.Op, rows, part); err != nil {
			unwind()
			return hostd.AllocInfo{}, err
		}
		done = append(done, addr)
	}
	if cross {
		if sp, ok := fc.liveSpine(spec.ID); !ok {
			// Every spine is down: leaf-only + host merge until the fabric
			// heals (cross-leaf residue streams to the receiver unabsorbed).
			skipped++
		} else if _, err := fc.Spines[sp].AllocRegionPartition(spec.ID, spec.Receiver, spec.Op, rows, part); err != nil {
			// The re-elected spine has no capacity for this task: same
			// leaf-only degradation, but keep the leaf regions we placed.
			skipped++
		} else {
			points = append(points, netsim.SpineAddr(sp))
		}
	}
	if len(points) == 0 {
		release()
		return hostd.AllocInfo{}, &core.DegradedError{Op: "alloc-region", Attempts: skipped}
	}
	fc.allocs[spec.ID] = fatAlloc{points: points, part: part, rows: rows, tenant: tenant}
	for _, a := range points {
		if !slices.Contains(fc.taskPoints[spec.ID], a) {
			fc.taskPoints[spec.ID] = append(fc.taskPoints[spec.ID], a)
		}
	}
	return hostd.AllocInfo{Partition: part, FetchFrom: points}, nil
}

// freeRegion releases a task's regions at every live aggregation point (a
// crashed switch's reboot wipes its own) and returns its rows to the tenant
// quota. The fabric-wide epoch bump discards allocations through it too.
func (fc *FatTreeCluster) freeRegion(task core.TaskID) error {
	a, ok := fc.allocs[task]
	if !ok {
		return fmt.Errorf("ask: task %d has no allocation", task)
	}
	delete(fc.allocs, task)
	var first error
	for _, addr := range a.points {
		if sw := fc.switchAt(addr); !sw.Down() {
			if err := sw.FreeRegion(task); err != nil && first == nil {
				first = err
			}
		}
	}
	if fc.Tenancy != nil {
		fc.Tenancy.Release(a.tenant, a.rows)
	}
	return first
}

// TaskSwitchStats sums the switch-side counters of a task over every
// aggregation point it was placed at (also after teardown). Switches that
// only forwarded its packets — a multi-rack sender's TOR — are left out.
func (fc *FatTreeCluster) TaskSwitchStats(task core.TaskID) switchd.TaskStats {
	var sum switchd.TaskStats
	for _, addr := range fc.taskPoints[task] {
		sum.Add(fc.switchAt(addr).TaskStatsOf(task))
	}
	return sum
}

// The spine/leaf fabric (its outage-epoch policy is in fattree_failover.go).

func (fc *FatTreeCluster) switches() []*switchd.Switch {
	return append(append([]*switchd.Switch(nil), fc.Leaves...), fc.Spines...)
}
func (fc *FatTreeCluster) uplink(h core.HostID) *netsim.Link   { return fc.Net.Uplink(h) }
func (fc *FatTreeCluster) downlink(h core.HostID) *netsim.Link { return fc.Net.Downlink(h) }
func (fc *FatTreeCluster) epoch() uint32                       { return fc.fabricEpoch }

func (fc *FatTreeCluster) taskStats(spec core.TaskSpec) switchd.TaskStats {
	return fc.TaskSwitchStats(spec.ID)
}

func (fc *FatTreeCluster) revokeRegion(task core.TaskID, _ core.HostID) error {
	return &UnsupportedError{Op: "RevokeRegion", Fabric: "fat-tree", Reason: fmt.Sprintf("task %d spans multiple aggregation points", task)}
}
