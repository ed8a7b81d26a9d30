// Package chaos is the fault-injection orchestrator for the simulated ASK
// deployments: it schedules scripted failures — switch crashes and reboots
// (addressed, so a fat-tree script can target one spine or leaf), per-task
// AA-region revocations, link black-holes and degradations, host daemon
// stalls — on the deterministic virtual clock, so every chaos run is exactly
// reproducible for a given seed and script.
//
// The orchestrator is a thin scheduling layer over an *ask.Deployment (the
// core of every ask cluster): each injected event is a named closure fired at
// an absolute virtual time via sim.At, and every firing is appended to a log
// that experiments and tests can assert against. Faults must heal within the
// script (a crash needs a matching reboot, a black-hole a matching clear),
// otherwise in-flight tasks cannot complete and the simulation will not
// quiesce.
package chaos

import (
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Record is one fired injection.
type Record struct {
	At   sim.Time
	Desc string
}

// Orchestrator schedules fault injections against one deployment: the rack
// (single switch, address ask.TheSwitch) or a fat-tree (switches at
// netsim.LeafAddr/SpineAddr; the multi-rack deployment is one, its TORs the
// leaves).
type Orchestrator struct {
	fab *ask.Deployment
	log []Record
	// injections counts fired events (chaos.injections on the cluster
	// registry); tr mirrors every firing into the trace ring. Both are
	// nil-safe no-ops on an uninstrumented cluster.
	injections *telemetry.Counter
	tr         *telemetry.Tracer
}

// New wraps a deployment in an orchestrator. The deployment should run with
// Config.Failover on; injecting switch faults into a non-failover cluster
// deadlocks tasks whose state died with the switch.
func New(d *ask.Deployment) *Orchestrator {
	o := &Orchestrator{fab: d}
	if ts := d.Tel; ts != nil {
		o.injections = ts.Registry.Counter("chaos.injections")
		o.tr = ts.Tracer
	}
	return o
}

// Log returns the fired injections in firing order.
func (o *Orchestrator) Log() []Record { return o.log }

// At schedules fn at absolute virtual time d (an offset from t=0, which for
// the usual build-then-run flow is also cluster creation time). Events fire
// between simulation steps, never preempting a running process mid-yield.
func (o *Orchestrator) At(d time.Duration, desc string, fn func()) {
	t := sim.Time(0).Add(d)
	s := o.fab.Sim
	s.At(t, func() {
		o.log = append(o.log, Record{At: s.Now(), Desc: desc})
		o.injections.Inc()
		o.tr.EmitNote(telemetry.CompChaos, "inject", 0, desc)
		fn()
	})
}

// SwitchOutage crashes the switch at fabric address addr at `at` and
// reboots it downFor later: the switch loses all in-network aggregation
// state (registers, flows, regions) and every frame through it in the
// outage window is black-holed. Hosts detect the outage via probe timeouts
// or the advanced epoch, run degraded (host-only where no alternate
// aggregation point exists), and re-attach to the new incarnation after the
// reboot. On the rack addr must be ask.TheSwitch; on the fat-tree use
// netsim.LeafAddr / netsim.SpineAddr. An address naming no switch is a
// script bug and panics at firing time.
func (o *Orchestrator) SwitchOutage(addr core.HostID, at, downFor time.Duration) {
	o.At(at, fmt.Sprintf("switch crash addr=%#x", uint16(addr)), func() {
		if err := o.fab.CrashSwitch(addr); err != nil {
			panic(fmt.Sprintf("chaos: %v", err))
		}
	})
	o.At(at+downFor, fmt.Sprintf("switch reboot addr=%#x", uint16(addr)), func() {
		if err := o.fab.RebootSwitch(addr); err != nil {
			panic(fmt.Sprintf("chaos: %v", err))
		}
	})
}

// RevokeRegion reclaims a task's aggregator rows at `at`. The switch keeps
// forwarding the task's packets host-only; the receiver drains the absorbed
// partials exactly once and finishes without in-network help.
func (o *Orchestrator) RevokeRegion(at time.Duration, task core.TaskID, receiver core.HostID) {
	o.At(at, fmt.Sprintf("revoke region task=%d", task), func() {
		// The region can legitimately be gone already (task finished or a
		// reboot wiped it), or the fabric cannot drain a revoked region
		// exactly-once (the fat-tree's *ask.UnsupportedError); either way it
		// is a no-op fault.
		_ = o.fab.RevokeRegion(task, receiver)
	})
}

// LinkBlackhole drops every frame on a host's uplink and downlink for the
// window [at, at+dur). The sliding window retransmits across the hole; with
// Config.MaxRetries bounded, a hole longer than the retry budget aborts the
// stream instead.
func (o *Orchestrator) LinkBlackhole(at, dur time.Duration, host core.HostID) {
	o.At(at, fmt.Sprintf("blackhole host=%d", host), func() {
		o.fab.HostUplink(host).SetBlackhole(true)
		o.fab.HostDownlink(host).SetBlackhole(true)
	})
	o.At(at+dur, fmt.Sprintf("heal blackhole host=%d", host), func() {
		o.fab.HostUplink(host).SetBlackhole(false)
		o.fab.HostDownlink(host).SetBlackhole(false)
	})
}

// LinkDegrade overrides a host's uplink and downlink fault model (loss,
// duplication, reordering) for the window [at, at+dur), then restores the
// configured model.
func (o *Orchestrator) LinkDegrade(at, dur time.Duration, host core.HostID, f netsim.Fault) {
	o.At(at, fmt.Sprintf("degrade link host=%d", host), func() {
		o.fab.HostUplink(host).SetFault(f)
		o.fab.HostDownlink(host).SetFault(f)
	})
	o.At(at+dur, fmt.Sprintf("heal link host=%d", host), func() {
		o.fab.HostUplink(host).ClearFault()
		o.fab.HostDownlink(host).ClearFault()
	})
}

// HostStall freezes a host daemon for [at, at+dur): it neither sends nor
// receives (crash-stop that later resumes with its state intact — the
// process survived, the box was wedged). Peers retransmit across the stall.
func (o *Orchestrator) HostStall(at, dur time.Duration, host core.HostID) {
	o.At(at, fmt.Sprintf("stall host=%d", host), func() { o.fab.Daemon(host).Stall() })
	o.At(at+dur, fmt.Sprintf("resume host=%d", host), func() { o.fab.Daemon(host).Resume() })
}

// Scenario is a named, reproducible fault script.
type Scenario struct {
	Name string
	Desc string
	// Schedule is the script, as data: the same Event type the soak
	// generates, shrinks and prints. Event times are thousandths of the
	// expected fault-free task duration (the scale Schedule.Apply takes), so
	// the faults land mid-task at any workload size.
	Schedule Schedule
}

// Scenarios is the standard library of fault scripts used by the chaos
// experiment and the correctness-invariant tests. task and receiver identify
// the aggregation task the revocation scenario targets; sender is the host
// whose link/daemon the network scenarios disturb.
func Scenarios(task core.TaskID, receiver core.HostID, sender core.HostID) []Scenario {
	return []Scenario{
		{
			Name:     "switch-reboot",
			Desc:     "switch crashes mid-task, reboots; hosts re-attach",
			Schedule: Schedule{{Kind: EvSwitchOutage, StartMil: 250, DurMil: 250}},
		},
		{
			Name: "double-reboot",
			Desc: "two switch outages in one task",
			Schedule: Schedule{
				{Kind: EvSwitchOutage, StartMil: 200, DurMil: 150},
				{Kind: EvSwitchOutage, StartMil: 600, DurMil: 150},
			},
		},
		{
			Name:     "region-revoked",
			Desc:     "controller reclaims the task's AA rows mid-task",
			Schedule: Schedule{{Kind: EvRevokeRegion, StartMil: 300, Task: task, Host: receiver}},
		},
		{
			Name:     "link-loss",
			Desc:     "one sender's link drops 20% of frames for half the task",
			Schedule: Schedule{{Kind: EvLinkDegrade, StartMil: 200, DurMil: 500, Host: sender, Fault: netsim.Fault{LossProb: 0.2}}},
		},
		{
			Name:     "link-blackhole",
			Desc:     "one sender's link goes dark briefly; retransmission bridges it",
			Schedule: Schedule{{Kind: EvLinkBlackhole, StartMil: 300, DurMil: 100, Host: sender}},
		},
		{
			Name:     "host-stall",
			Desc:     "one sender daemon freezes briefly, then resumes",
			Schedule: Schedule{{Kind: EvHostStall, StartMil: 300, DurMil: 100, Host: sender}},
		},
		{
			Name: "reboot-under-loss",
			Desc: "switch outage while every frame also risks 5% loss",
			Schedule: Schedule{
				{Kind: EvLinkDegrade, StartMil: 0, DurMil: 1000, Host: sender, Fault: netsim.Fault{LossProb: 0.05}},
				{Kind: EvSwitchOutage, StartMil: 250, DurMil: 250},
			},
		},
	}
}
