package ask

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// MultiRackOptions configures the §7 multi-rack deployment: several racks,
// each with its own ASK switch on the TOR, joined by a forwarding core.
type MultiRackOptions struct {
	Racks        int
	HostsPerRack int
	Config       core.Config
	// HostLink configures host↔TOR links, CoreLink the TOR↔core links.
	HostLink netsim.LinkConfig
	CoreLink netsim.LinkConfig
	Cores    int
	Seed     int64
	// Switch sizes each TOR's state tables; MaxFlows bounds only that
	// rack's channels (the state-explosion containment of §7).
	Switch switchd.Options
	// Shards, when > 1, partitions the fabric into that many parallel event
	// lanes of contiguous racks (DESIGN.md "Parallel DES"): each rack's TOR,
	// hosts and local links run on a lane goroutine, synchronized at
	// conservative lookahead windows over the TOR↔core cuts. Results are
	// byte-identical to the serial build. Values <= 1, or more shards than
	// racks worth of parallelism, clamp toward serial (netsim.EffectiveShards);
	// Shards <= 1 takes the exact serial code path.
	Shards int
}

// MultiRackCluster is a two-tier deployment: the cluster core over a fabric
// of per-rack TORs joined by a forwarding core. Aggregation tasks get
// in-network aggregation from the receiver's TOR for rack-local senders;
// cross-rack traffic bypasses the receiver's TOR and is aggregated at the
// receiver host (§7), so no TOR ever holds state for another rack's
// channels.
type MultiRackCluster struct {
	cluster
	Net  *netsim.TwoTier
	TORs []*switchd.Switch
}

// HostAt returns the host ID of slot i in rack r.
func (o MultiRackOptions) HostAt(r, i int) core.HostID {
	return core.HostID(r*o.HostsPerRack + i)
}

// NewMultiRackCluster builds the deployment. Host IDs are assigned
// rack-major: rack r holds IDs [r·HostsPerRack, (r+1)·HostsPerRack). It
// returns an error only for invalid options (non-positive Racks or
// HostsPerRack, or a Config the switches or daemons reject).
func NewMultiRackCluster(opts MultiRackOptions) (*MultiRackCluster, error) {
	if opts.Racks <= 0 || opts.HostsPerRack <= 0 {
		return nil, fmt.Errorf("ask: need positive Racks and HostsPerRack")
	}
	defaults(&opts.Config, &opts.Cores, &opts.Switch, &opts.HostLink, &opts.CoreLink)
	mc := &MultiRackCluster{}
	mc.cluster = newCluster(mc, opts.Seed, opts.Config, opts.Cores, telemetry.Config{})
	tt, _ := netsim.NewTwoTierSharded(mc.Sim, opts.Racks, opts.Shards, opts.HostLink, opts.CoreLink)
	tt.SetCodec(wire.NewCodec(opts.Config.KPartBytes))
	mc.Net = tt
	for r := 0; r < opts.Racks; r++ {
		// RackSim is the rack's shard lane for a sharded build and the
		// fabric-wide simulation otherwise; every piece of rack-local state
		// (TOR program, host CPUs, daemons) schedules only there.
		sw, err := switchd.New(tt.RackSim(r), tt.TOR(r), opts.Config, opts.Switch)
		if err != nil {
			return nil, fmt.Errorf("ask: rack %d TOR: %w", r, err)
		}
		mc.TORs = append(mc.TORs, sw)
	}
	for r := 0; r < opts.Racks; r++ {
		for i := 0; i < opts.HostsPerRack; i++ {
			// Each daemon's control plane is its own rack's TOR: channels
			// register there, and a receiver allocates its task region
			// there — never on a remote TOR. That same locality is what
			// makes the sharded build race-free without rendezvous: no
			// control call ever crosses a lane.
			// Zero telemetry sink: multi-rack daemons keep private
			// registries (per-host/per-task label sets would collide on
			// a shared registry across TORs).
			if _, err := mc.addHost(tt.RackSim(r), rackFabric{tt, r}, opts.HostAt(r, i), controllerAdapter{mc.TORs[r]}, telemetry.Sink{}); err != nil {
				return nil, err
			}
		}
	}
	return mc, nil
}

// rackFabric narrows the two-tier fabric to one rack's host attach point.
type rackFabric struct {
	tt   *netsim.TwoTier
	rack int
}

func (rf rackFabric) AttachHost(id core.HostID, h netsim.HostHandler) {
	rf.tt.AttachHostRack(rf.rack, id, h)
}
func (rf rackFabric) HostSend(f *netsim.Frame)           { rf.tt.HostSend(f) }
func (rf rackFabric) Uplink(id core.HostID) *netsim.Link { return rf.tt.Uplink(id) }

// ReceiverTOR returns the switch that serves a task at the given receiver.
func (mc *MultiRackCluster) ReceiverTOR(receiver core.HostID) *switchd.Switch {
	return mc.TORs[mc.Net.RackOf(receiver)]
}

// The two-tier fabric: a task's only aggregation point is the receiver's
// TOR. The switch half of the fault surface is out of scope: netsim.TwoTier
// has no TOR addressing and there is no per-rack epoch story, so outages and
// revocation report *UnsupportedError, as the fat-tree does for revocation.

func (mc *MultiRackCluster) switches() []*switchd.Switch         { return mc.TORs }
func (mc *MultiRackCluster) uplink(h core.HostID) *netsim.Link   { return mc.Net.Uplink(h) }
func (mc *MultiRackCluster) downlink(h core.HostID) *netsim.Link { return mc.Net.Downlink(h) }

func (mc *MultiRackCluster) taskStats(spec core.TaskSpec) switchd.TaskStats {
	return *mc.ReceiverTOR(spec.Receiver).TaskStatsOf(spec.ID)
}

func (mc *MultiRackCluster) setSwitchDown(core.HostID, bool) error {
	return &UnsupportedError{Op: "a switch outage", Fabric: "multi-rack fabric", Reason: "TORs have no fabric address and no per-rack epoch"}
}

func (mc *MultiRackCluster) revokeRegion(core.TaskID, core.HostID) error {
	return &UnsupportedError{Op: "RevokeRegion", Fabric: "multi-rack fabric", Reason: "the revocation drain is not wired to rack lanes"}
}
