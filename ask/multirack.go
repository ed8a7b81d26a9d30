package ask

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/switchd"
)

// MultiRackOptions configures the §7 multi-rack deployment: several racks,
// each with its own ASK switch on the TOR, joined by a forwarding core.
type MultiRackOptions struct {
	Racks        int
	HostsPerRack int
	// Config is the ASK configuration. As everywhere, Failover requires
	// SwapThreshold 0 (failover replay cannot attribute swap fetches).
	Config core.Config
	// HostLink configures host↔TOR links, CoreLink the TOR↔core links.
	HostLink netsim.LinkConfig
	CoreLink netsim.LinkConfig
	Cores    int
	Seed     int64
	// Switch sizes each TOR's state tables; MaxFlows bounds only that
	// rack's channels (the state-explosion containment of §7).
	Switch switchd.Options
}

// HostAt returns the host ID of slot i in rack r.
func (o MultiRackOptions) HostAt(r, i int) core.HostID {
	return core.HostID(r*o.HostsPerRack + i)
}

// NewMultiRackCluster builds the §7 deployment as a preset of the fat-tree:
// the racks' TORs are its Leaves (addressed by netsim.LeafAddr), the core is
// one spine that only forwards (Spines is empty), and a task's single region
// sits at the receiver's TOR. Rack-local senders get in-network aggregation
// there; cross-rack traffic bypasses the receiver's TOR program and is
// aggregated at the receiver host, so no TOR ever holds task state for
// another rack. Everything else — TOR crash/reboot under the fabric-wide
// epoch, replay recovery — is the fat-tree's. Host IDs are
// rack-major: rack r holds [r·HostsPerRack, (r+1)·HostsPerRack). It returns
// an error under the same conditions as NewFatTreeCluster.
func NewMultiRackCluster(opts MultiRackOptions) (*FatTreeCluster, error) {
	if opts.Racks <= 0 || opts.HostsPerRack <= 0 {
		return nil, fmt.Errorf("ask: need positive Racks and HostsPerRack")
	}
	return newFatTreeCluster(FatTreeOptions{
		Spines: 1, Leaves: opts.Racks, HostsPerLeaf: opts.HostsPerRack,
		Config: opts.Config, HostLink: opts.HostLink, FabricLink: opts.CoreLink,
		Cores: opts.Cores, Seed: opts.Seed, Switch: opts.Switch,
	}, true)
}
