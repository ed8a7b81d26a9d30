package main

import (
	"fmt"
	"sort"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/tenancy"
	"repro/internal/wire"
)

// cluster is the benchmark's view of one simulated deployment: what it needs
// to start tasks, run the clock and read every layer's counters afterwards.
// The three constructors below fill it from ask.Cluster, ask.FatTreeCluster
// and the benchmark's own traced rack wiring, so the measuring code is the
// same for every fabric.
type cluster struct {
	sim      *sim.Simulation
	switches []*switchd.Switch
	hosts    []core.HostID
	links    []*netsim.Link // every directed link whose stats are reachable
	daemon   func(core.HostID) *hostd.Daemon
	cpu      func(core.HostID) *cpumodel.Host
	uplink   func(core.HostID) *netsim.Link
	// start submits one task without running the clock; the returned func
	// reads its outcome once the simulation has quiesced.
	start   func(t *task) (func() (*ask.TaskResult, error), error)
	tenancy *tenancy.Manager // nil without tenants
	group   *sim.ShardGroup  // nil on a serial build
}

func plainStreams(t *task) map[core.HostID]core.Stream {
	m := make(map[core.HostID]core.Stream, len(t.plain))
	for h, kvs := range t.plain {
		m[h] = core.SliceStream(kvs)
	}
	return m
}

func timedStreams(t *task) map[core.HostID]core.TimedStream {
	m := make(map[core.HostID]core.TimedStream, len(t.timed))
	for h, tkvs := range t.timed {
		m[h] = core.SliceTimedStream(tkvs)
	}
	return m
}

func newRack(opts ask.Options) (*cluster, error) {
	cl, err := ask.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		sim:      cl.Sim,
		switches: []*switchd.Switch{cl.Switch},
		hosts:    cl.Net.Hosts(),
		daemon:   cl.Daemon,
		cpu:      cl.CPU,
		uplink:   cl.HostUplink,
	}
	for _, h := range c.hosts {
		c.links = append(c.links, cl.HostUplink(h), cl.HostDownlink(h))
	}
	c.start = func(t *task) (func() (*ask.TaskResult, error), error) {
		if t.timed != nil {
			pt, err := cl.StartTaskTimed(t.spec, timedStreams(t))
			if err != nil {
				return nil, err
			}
			return pt.Get, nil
		}
		pt, err := cl.StartTask(t.spec, plainStreams(t))
		if err != nil {
			return nil, err
		}
		return pt.Get, nil
	}
	return c, nil
}

func newFatTree(opts ask.FatTreeOptions) (*cluster, error) {
	fc, err := ask.NewFatTreeCluster(opts)
	if err != nil {
		return nil, err
	}
	c := &cluster{
		sim:      fc.Sim,
		switches: append(append([]*switchd.Switch(nil), fc.Leaves...), fc.Spines...),
		daemon:   fc.Daemon,
		cpu:      fc.CPU,
		uplink:   fc.Net.Uplink,
		tenancy:  fc.Tenancy,
		group:    fc.Net.Group(),
	}
	for l := 0; l < opts.Leaves; l++ {
		for i := 0; i < opts.HostsPerLeaf; i++ {
			h := opts.HostAt(l, i)
			c.hosts = append(c.hosts, h)
			c.links = append(c.links, fc.Net.Uplink(h), fc.Net.Downlink(h))
		}
		for s := 0; s < opts.Spines; s++ {
			c.links = append(c.links, fc.Net.SpineUplink(l, s))
		}
	}
	c.start = func(t *task) (func() (*ask.TaskResult, error), error) {
		pt, err := fc.StartTask(t.spec, plainStreams(t))
		if err != nil {
			return nil, err
		}
		return pt.Get, nil
	}
	return c, nil
}

// rackController is ask's controllerAdapter: the single switch's control
// plane narrowed to what a daemon calls.
type rackController struct{ sw *switchd.Switch }

func (c rackController) RegisterFlow(fk core.FlowKey) (uint32, error) {
	if _, err := c.sw.RegisterFlow(fk); err != nil {
		return 0, err
	}
	return c.sw.Epoch(), nil
}

func (c rackController) RegisterFlowAt(fk core.FlowKey, start uint32) (uint32, error) {
	if _, err := c.sw.RegisterFlowAt(fk, start); err != nil {
		return 0, err
	}
	return c.sw.Epoch(), nil
}

func (c rackController) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	_, err := c.sw.AllocRegion(spec.ID, spec.Receiver, spec.Op, spec.Rows)
	return hostd.AllocInfo{}, err
}

func (c rackController) FreeRegion(task core.TaskID) error { return c.sw.FreeRegion(task) }

// newTracedRack wires the rack from sim.New, netsim.New, switchd.New and
// hostd.New in the order ask.NewCluster does, but hands switch and daemons a
// spanFabric instead of the bare network, so every call across a layer
// boundary is recorded in log. The driver proc mirrors ask's startTask.
// The traced run must reproduce the untraced run's simulated record exactly
// (checked by the caller); if ask.NewCluster's wiring changes, that check
// fails and this function has to follow.
func newTracedRack(opts ask.Options, log *spanLog) (*cluster, error) {
	if opts.Config.NumAAs == 0 {
		opts.Config = core.DefaultConfig()
	}
	if opts.Link.BandwidthBps == 0 {
		opts.Link = netsim.DefaultLinkConfig()
	}
	s := sim.New(opts.Seed)
	n := netsim.New(s, opts.Link)
	n.SetCodec(wire.NewCodec(opts.Config.KPartBytes))
	fab := &spanFabric{net: n, log: log}
	sw, err := switchd.New(s, fab, opts.Config, switchd.DefaultOptions())
	if err != nil {
		return nil, err
	}
	daemons := make(map[core.HostID]*hostd.Daemon)
	cpus := make(map[core.HostID]*cpumodel.Host)
	for h := 0; h < opts.Hosts; h++ {
		id := core.HostID(h)
		cpus[id] = cpumodel.NewHost(s, cpumodel.DefaultCores)
		d, err := hostd.New(s, fab, cpus[id], opts.Config, id, rackController{sw}, telemetry.Sink{})
		if err != nil {
			return nil, err
		}
		daemons[id] = d
	}
	c := &cluster{
		sim:      s,
		switches: []*switchd.Switch{sw},
		hosts:    n.Hosts(),
		daemon:   func(h core.HostID) *hostd.Daemon { return daemons[h] },
		cpu:      func(h core.HostID) *cpumodel.Host { return cpus[h] },
		uplink:   n.Uplink,
	}
	for _, h := range c.hosts {
		c.links = append(c.links, n.Uplink(h), n.Downlink(h))
	}
	c.start = func(t *task) (func() (*ask.TaskResult, error), error) {
		var res *ask.TaskResult
		var runErr error
		start := s.Now()
		s.Spawn(fmt.Sprintf("driver-task%d", t.spec.ID), func(p *sim.Proc) {
			h, err := daemons[t.spec.Receiver].Submit(p, t.spec)
			if err != nil {
				runErr = err
				return
			}
			senders := append([]core.HostID(nil), t.spec.Senders...)
			sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
			for _, sd := range senders {
				if t.timed != nil {
					daemons[sd].SubmitSendTimed(t.spec.ID, core.SliceTimedStream(t.timed[sd]))
				} else {
					daemons[sd].SubmitSend(t.spec.ID, core.SliceStream(t.plain[sd]))
				}
			}
			result := h.Wait(p)
			res = &ask.TaskResult{Result: result, Elapsed: p.Now() - start, Recv: h.Stats(), Switch: *sw.TaskStatsOf(t.spec.ID)}
		})
		return func() (*ask.TaskResult, error) {
			if runErr != nil {
				return nil, runErr
			}
			if res == nil {
				return nil, fmt.Errorf("task %d did not complete", t.spec.ID)
			}
			return res, nil
		}, nil
	}
	return c, nil
}
