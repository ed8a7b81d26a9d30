package ask

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
)

// fabric is what differs between deployments. Everything else — task
// validation, the driver proc, accounting, accessors — is the one cluster
// core below. The cluster layer runs at task set-up and teardown only: a
// fabric is never on the per-frame path (daemons attach straight to netsim).
type fabric interface {
	// switches lists every ASK switch in fabric order.
	switches() []*switchd.Switch
	// uplink / downlink resolve a host's links to its first-hop switch.
	uplink(h core.HostID) *netsim.Link
	downlink(h core.HostID) *netsim.Link
	// taskStats returns a task's switch-side counters: the rack's switch, or
	// the sum over the task's aggregation points.
	taskStats(spec core.TaskSpec) switchd.TaskStats
	// setSwitchDown is the outage-epoch policy: crash (down) or reboot the
	// switch at addr and advance whatever incarnation numbering the fabric
	// keeps — the rack's per-switch epoch, the fat-tree's fabric-wide one.
	setSwitchDown(addr core.HostID, down bool) error
	// epoch is the newest incarnation the fabric has announced: the rack
	// switch's own, or the fat-tree's fabric-wide one.
	epoch() uint32
	// revokeRegion marks a task's region revoked at the single switch that
	// holds it, or reports that the fabric has no such single point.
	revokeRegion(task core.TaskID, receiver core.HostID) error
}

// UnsupportedError reports a control or fault-injection operation a fabric
// cannot perform; match with errors.As.
type UnsupportedError struct {
	Op, Fabric, Reason string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("ask: %s is not supported on the %s (%s)", e.Op, e.Fabric, e.Reason)
}

// Deployment is the deployment-independent core — the simulation, the
// telemetry set, the hosts, and everything that runs a task — and the one
// type code that must work on every fabric holds. Cluster and FatTreeCluster
// (which the multi-rack deployment is a preset of) embed it and add only their
// topology fields, so its exported fields and methods are promoted onto the
// two shells and &cl.Deployment is the shell's core. Build one through a
// shell's constructor.
type Deployment struct {
	// Sim is the deterministic virtual-time kernel.
	Sim *sim.Simulation
	// Tel is the cluster observability set (nil unless the deployment's
	// Telemetry option is enabled): registry, tracer, and sampler.
	Tel *telemetry.Set

	cfg     core.Config
	fab     fabric
	hosts   []core.HostID
	daemons map[core.HostID]*hostd.Daemon
	cpus    map[core.HostID]*cpumodel.Host
	// activeTasks gates the telemetry sampler: it runs only while tasks
	// are in flight so Sim.Run(0) still quiesces.
	activeTasks int
}

// defaults fills the zero values every deployment's options share: the
// paper's configuration and 100 Gbps / 1 µs links.
func defaults(cfg *core.Config, links ...*netsim.LinkConfig) {
	if cfg.NumAAs == 0 {
		*cfg = core.DefaultConfig()
	}
	for _, l := range links {
		if l.BandwidthBps == 0 {
			*l = netsim.DefaultLinkConfig()
		}
	}
}

func newDeployment(fab fabric, seed int64, cfg core.Config, tel bool) Deployment {
	d := Deployment{
		Sim:     sim.New(seed),
		cfg:     cfg,
		fab:     fab,
		daemons: make(map[core.HostID]*hostd.Daemon),
		cpus:    make(map[core.HostID]*cpumodel.Host),
	}
	if tel {
		d.Tel = telemetry.NewSet(d.Sim)
	}
	return d
}

// addHost builds one server — a CPU model with the paper's 56 cores, then
// its daemon — on simulation lane s, attached to the network at `at` with
// ctrl as its control plane. Constructors call it in host-ID order; that
// order is part of the simulated record bench/ reproduces.
func (c *Deployment) addHost(s *sim.Simulation, at netsim.HostFabric, id core.HostID, ctrl hostd.Controller, sink telemetry.Sink) (*hostd.Daemon, error) {
	cpu := cpumodel.NewHost(s, cpumodel.DefaultCores)
	d, err := hostd.New(s, at, cpu, c.cfg, id, ctrl, sink)
	if err != nil {
		return nil, err
	}
	c.hosts = append(c.hosts, id)
	c.daemons[id] = d
	c.cpus[id] = cpu
	return d, nil
}

// Config returns the deployment configuration.
func (c *Deployment) Config() core.Config { return c.cfg }

// Hosts lists the servers in host-ID order.
func (c *Deployment) Hosts() []core.HostID { return c.hosts }

// Switches lists every ASK switch: the rack's one, or the leaves (the TORs
// of a multi-rack deployment) followed by the spines.
func (c *Deployment) Switches() []*switchd.Switch { return c.fab.switches() }

// Daemon returns the host daemon of a server.
func (c *Deployment) Daemon(h core.HostID) *hostd.Daemon { return c.daemons[h] }

// CPU returns the CPU model of a server.
func (c *Deployment) CPU(h core.HostID) *cpumodel.Host { return c.cpus[h] }

// HostUplink returns a host's uplink to its first-hop switch (fault
// injection, stats).
func (c *Deployment) HostUplink(h core.HostID) *netsim.Link { return c.fab.uplink(h) }

// HostDownlink returns a host's downlink from its first-hop switch.
func (c *Deployment) HostDownlink(h core.HostID) *netsim.Link { return c.fab.downlink(h) }

// CrashSwitch takes the switch at fabric address addr down: it black-holes
// every frame until RebootSwitch. The rack's only switch answers to
// TheSwitch; fat-tree switches to netsim.LeafAddr / netsim.SpineAddr (a
// multi-rack TOR is the leaf of its rack; the forwarding core has no address),
// and a crash there also advances the fabric epoch (crashing an
// already-crashed switch is a no-op) and requires Config.Failover. It returns
// an error when addr names no switch.
func (c *Deployment) CrashSwitch(addr core.HostID) error { return c.fab.setSwitchDown(addr, true) }

// RebootSwitch brings the switch at addr back up as a fresh incarnation
// (state wiped, epoch advanced — fabric-wide on the fat-tree, which
// triggers the recovery that re-registers flows and re-allocates regions).
// It returns an error under the same conditions as CrashSwitch.
func (c *Deployment) RebootSwitch(addr core.HostID) error { return c.fab.setSwitchDown(addr, false) }

// FabricEpoch returns the fabric's incarnation number. It starts at 1; on the
// rack it is the switch's epoch (each reboot advances it), on the fat-tree
// the fabric-wide epoch (each switch crash and each reboot advances it by
// one).
func (c *Deployment) FabricEpoch() uint32 { return c.fab.epoch() }

// RevokeRegion mimics the controller reclaiming a task's aggregator rows
// mid-flight (e.g. to make room for a higher-priority tenant): the switch
// stops aggregating for the task immediately, and after one control-RPC
// latency the receiver daemon learns of the revocation, drains the absorbed
// state, and continues host-only. It returns an error when Config.Failover
// is off or the receiver daemon is unknown, and an *UnsupportedError on the
// fat-tree and its multi-rack preset — a task's absorbed state can be spread
// over several aggregation points and the single-point drain cannot reclaim
// it exactly-once; fabric capacity pressure is modeled by admission control
// instead.
func (c *Deployment) RevokeRegion(task core.TaskID, receiver core.HostID) error {
	if !c.cfg.Failover {
		return fmt.Errorf("ask: RevokeRegion requires Config.Failover")
	}
	d, ok := c.daemons[receiver]
	if !ok {
		return fmt.Errorf("ask: receiver host %d not in cluster", receiver)
	}
	if err := c.fab.revokeRegion(task, receiver); err != nil {
		return err
	}
	c.Sim.After(cpumodel.ControlRPCLatency, func() { d.OnRegionRevoked(task) })
	return nil
}

// TaskResult is the outcome of one aggregation task.
type TaskResult struct {
	Result core.Result
	// Elapsed is the virtual time from submission to completion.
	Elapsed sim.Time
	// Recv holds the receiver-side counters.
	Recv hostd.RecvTaskStats
	// Switch holds the switch-side counters for the task: the rack switch's,
	// or the sum over its fat-tree aggregation points (on the multi-rack
	// preset that is the receiver's TOR alone).
	Switch switchd.TaskStats
	// Degraded is the longest time any participating daemon spent in
	// degraded (host-only) mode while the task ran; zero on a fault-free
	// run or when Config.Failover is off.
	Degraded time.Duration
}

// PendingTask is a task started with StartTask or StartTaskTimed whose result
// becomes available after the simulation runs. Job wraps it; bench/ is the only
// code outside this package that holds one directly, until it moves onto Job.
type PendingTask struct {
	spec   core.TaskSpec
	start  sim.Time
	result *TaskResult
	err    error
}

// Get returns the task outcome; it errors if the task has not completed.
func (pt *PendingTask) Get() (*TaskResult, error) {
	if pt.err != nil {
		return nil, pt.err
	}
	if pt.result == nil {
		return nil, fmt.Errorf("ask: task %d did not complete (run the simulation to quiescence)", pt.spec.ID)
	}
	return pt.result, nil
}

// StartTask is StartTaskTimed for plain streams: every arrival at offset
// zero, so each sender drains its stream back to back. Its error behaviour
// matches StartTaskTimed. Its callers are bench/ and the submission-error case
// of the conformance tests, until bench/ moves onto Job.
func (c *Deployment) StartTask(spec core.TaskSpec, streams map[core.HostID]core.Stream) (*PendingTask, error) {
	return c.StartTaskTimed(spec, timedStreams(streams))
}

// timedStreams lifts plain sender streams to arrival offset zero.
func timedStreams(streams map[core.HostID]core.Stream) map[core.HostID]core.TimedStream {
	timed := make(map[core.HostID]core.TimedStream, len(streams))
	for h, s := range streams {
		timed[h] = s.Timed()
	}
	return timed
}

// StartTaskTimed is the low-level start under Job.Start; its only other
// caller is bench/, until it moves onto Job. It submits a task and its sender
// streams without running the simulation, so several tasks (e.g. one per
// tenant) can run concurrently; call Sim.Run(0) and then Get. Each daemon
// consumes its stream on the sim clock — tuples enter the packetizer at their
// arrival offsets, partial packets flush on lulls — so the task experiences
// the trace's temporal shape (bursts, diurnal cycles, idle gaps). It returns
// an error when the spec has no senders, names hosts outside the cluster, or
// a sender has no stream. Errors from the task's execution — including, on
// tenant-partitioned fat-trees, admission rejections (match with errors.As
// against *tenancy.OverloadError) — surface later, from Get.
func (c *Deployment) StartTaskTimed(spec core.TaskSpec, streams map[core.HostID]core.TimedStream) (*PendingTask, error) {
	if err := c.validate(spec, streams); err != nil {
		return nil, err
	}
	pt := &PendingTask{spec: spec, start: c.Sim.Now()}
	// The sampler self-reschedules on the sim clock, so it runs only while
	// tasks are in flight: left running on an idle cluster it would keep
	// Sim.Run(0) from quiescing.
	c.activeTasks++
	if c.activeTasks == 1 && c.Tel != nil {
		c.Tel.Sampler.Start()
	}
	// The driver proc: submit at the receiver, start the senders in host-ID
	// order, wait, account.
	c.Sim.Spawn(fmt.Sprintf("driver-task%d", spec.ID), func(p *sim.Proc) {
		defer func() {
			c.activeTasks--
			if c.activeTasks == 0 && c.Tel != nil {
				c.Tel.Sampler.Stop()
			}
		}()
		h, err := c.daemons[spec.Receiver].Submit(p, spec)
		if err != nil {
			pt.err = err
			return
		}
		// Deterministic sender start order.
		senders := append([]core.HostID(nil), spec.Senders...)
		sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
		for _, s := range senders {
			c.daemons[s].SubmitSendTimed(spec.ID, streams[s])
		}
		result := h.Wait(p)
		// A region revocation degrades only the task, not the daemon.
		degraded := h.Stats().Degraded
		for _, hid := range append([]core.HostID{spec.Receiver}, senders...) {
			if dt := c.daemons[hid].FailoverStats().DegradedTime; dt > degraded {
				degraded = dt
			}
		}
		pt.result = &TaskResult{
			Result:   result,
			Elapsed:  p.Now() - pt.start,
			Recv:     h.Stats(),
			Switch:   c.fab.taskStats(spec),
			Degraded: degraded,
		}
	})
	return pt, nil
}

// validate is the one task validator: same checks, same order, same errors
// on every fabric.
func (c *Deployment) validate(spec core.TaskSpec, streams map[core.HostID]core.TimedStream) error {
	if len(spec.Senders) == 0 {
		return fmt.Errorf("ask: task %d has no senders", spec.ID)
	}
	for _, s := range spec.Senders {
		if _, ok := c.daemons[s]; !ok {
			return fmt.Errorf("ask: sender host %d not in cluster", s)
		}
		if _, ok := streams[s]; !ok {
			return fmt.Errorf("ask: no stream for sender host %d", s)
		}
	}
	if _, ok := c.daemons[spec.Receiver]; !ok {
		return fmt.Errorf("ask: receiver host %d not in cluster", spec.Receiver)
	}
	return nil
}
