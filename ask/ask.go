// Package ask is the public API of the ASK reproduction: a switch–host
// co-designed in-network aggregation service for key-value streams
// (He et al., "A Generic Service to Provide In-Network Aggregation for
// Key-Value Streams", ASPLOS 2023).
//
// There is one deployment type, Deployment: the simulation, the hosts and
// everything that runs a task, on whatever fabric it was built over. The
// constructors return it inside a shell that adds only topology fields —
// NewCluster a rack (a virtual-time kernel, a single-switch 100 Gbps network,
// a PISA-constrained ASK switch program, one host daemon per server),
// NewFatTreeCluster a spine/leaf fabric, NewMultiRackCluster its §7 preset —
// and promotes every Deployment method; code that must run on any of them
// holds the *Deployment (&cl.Deployment).
//
// A task and its verdict are one Job: the spec, each sender's stream, and the
// plain keyed reduce of those streams that the result must equal (§2.1.1,
// Eq. 2), folded on the host as the senders are added.
//
//	cl, _ := ask.NewCluster(ask.Options{Hosts: 4})
//	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
//	for h := core.HostID(1); h <= 3; h++ {
//	    job.Send(h, workload.Uniform(4096, 100_000, int64(h)))
//	}
//	res, err := cl.Run(job) // a wrong aggregate is a *core.MismatchError
//
// Run executes the full protocol of the paper: task setup over the control
// channel, multi-key vectorized switch aggregation, sliding-window
// reliability, shadow-copy hot-key prioritization, FIN-driven teardown, and
// the switch-state fetch/merge — returning the exact aggregation of all
// streams. Start, Sim.Run and Job.Result are its three steps for callers that
// run the clock themselves (a task that runs past a deadline, tasks started
// at different instants). A stream is a sequence of arrivals on the sim clock
// (core.TimedStream); a plain core.Stream is the same thing with every
// arrival at offset zero, and takes the same path. Everything executes on
// deterministic virtual time, so results and performance measurements are
// reproducible for a given Seed.
package ask

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/switchd"
	"repro/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// Hosts is the number of servers (host IDs 0..Hosts-1).
	Hosts int
	// Config is the ASK deployment configuration (zero value: the paper's
	// defaults via core.DefaultConfig).
	Config core.Config
	// Link configures every host's link (zero value: 100 Gbps, 1 µs).
	Link netsim.LinkConfig
	// Seed drives all randomness (fault injection); runs with equal seeds
	// are identical.
	Seed int64
	// Switch sizes the switch state tables (zero value: defaults).
	Switch switchd.Options
	// Telemetry enables the cluster-wide observability stack: a shared
	// metrics registry across switch, daemons, transport windows and
	// network, a sim-clock trace ring, and a gauge sampler that runs while
	// tasks are active. Off, components fall back to private registries so
	// Stats accessors still work.
	Telemetry bool
}

// Cluster is a simulated rack running the ASK service: the Deployment over a
// one-switch fabric. The core supplies the task API (Run, Start), the
// accessors, and the promoted fields Sim (the
// simulation) and Tel (the telemetry set, nil when disabled).
type Cluster struct {
	Deployment
	Net    *netsim.Network
	Switch *switchd.Switch
}

// controllerAdapter narrows switchd.Switch to the hostd.Controller surface:
// the control plane of a host whose flows and regions live on the rack's one
// switch.
type controllerAdapter struct{ sw *switchd.Switch }

func (c controllerAdapter) RegisterFlowAt(fk core.FlowKey, start uint32) (uint32, error) {
	if _, err := c.sw.RegisterFlowAt(fk, start); err != nil {
		return 0, err
	}
	// The control plane is synchronous in the simulation, so the epoch read
	// here is exactly the incarnation the registration landed on.
	return c.sw.Epoch(), nil
}

func (c controllerAdapter) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	_, err := c.sw.AllocRegion(spec.ID, spec.Receiver, spec.Op, spec.Rows)
	return hostd.AllocInfo{}, err
}

func (c controllerAdapter) FreeRegion(task core.TaskID) error { return c.sw.FreeRegion(task) }

// NewCluster builds a rack: one ASK switch and Hosts servers, each running
// a host daemon with Config.DataChannels persistent channels. It returns
// an error only for invalid options (non-positive Hosts, a Config the
// switch or daemons reject).
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Hosts <= 0 {
		return nil, fmt.Errorf("ask: Hosts must be positive")
	}
	defaults(&opts.Config, &opts.Link)
	if opts.Switch.MaxFlows == 0 {
		opts.Switch = switchd.DefaultOptions()
	}
	cl := &Cluster{}
	cl.Deployment = newDeployment(cl, opts.Seed, opts.Config, opts.Telemetry)
	// Construction order — network, switch, hosts in ID order — is part of
	// the simulated record: bench/'s traced rack rebuilds it step for step.
	sink := cl.Tel.Sink()
	cl.Net = netsim.New(cl.Sim, opts.Link)
	cl.Net.Instrument(sink)
	// Hand links the byte codec so the corruption fault path can deliver
	// real damaged bytes (never SkipVerify here — the on-wire encoding is
	// always checksummed; verification policy lives at the receivers).
	cl.Net.SetCodec(wire.NewCodec(opts.Config.KPartBytes))
	swOpts := opts.Switch
	swOpts.Telemetry = sink
	sw, err := switchd.New(cl.Sim, cl.Net, opts.Config, swOpts)
	if err != nil {
		return nil, err
	}
	cl.Switch = sw
	for h := 0; h < opts.Hosts; h++ {
		if _, err := cl.addHost(cl.Sim, cl.Net, core.HostID(h), controllerAdapter{sw}, sink); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// TheSwitch is the fabric address of the rack's only switch for the
// addressed fault-injection surface (CrashSwitch): rack deployments have a
// single switch, and it answers to address 0. Fat-tree switches use the
// netsim.LeafAddr/SpineAddr range instead.
const TheSwitch core.HostID = 0

// The one-switch fabric: per-switch incarnations (a reboot advances only the
// switch's own epoch), and the switch is the task's single aggregation point.

func (c *Cluster) switches() []*switchd.Switch         { return []*switchd.Switch{c.Switch} }
func (c *Cluster) uplink(h core.HostID) *netsim.Link   { return c.Net.Uplink(h) }
func (c *Cluster) downlink(h core.HostID) *netsim.Link { return c.Net.Downlink(h) }
func (c *Cluster) epoch() uint32                       { return c.Switch.Epoch() }

func (c *Cluster) taskStats(spec core.TaskSpec) switchd.TaskStats {
	return *c.Switch.TaskStatsOf(spec.ID)
}

func (c *Cluster) setSwitchDown(addr core.HostID, down bool) error {
	if addr != TheSwitch {
		return fmt.Errorf("ask: no switch at fabric address %#x", addr)
	}
	if down {
		c.Switch.Crash()
	} else {
		c.Switch.Reboot()
	}
	return nil
}

func (c *Cluster) revokeRegion(task core.TaskID, _ core.HostID) error {
	return c.Switch.RevokeRegion(task)
}
