// Package cpumodel models host CPU capacity and per-operation costs.
//
// The paper's testbed servers have 56 Xeon Gold 5120T cores (§5.1). Each
// simulated host owns a sim.Resource of that many cores; model code runs
// work as processes that hold a core for the operation's calibrated virtual
// duration. Utilization and busy-time metrics fall out of the resource
// accounting and reproduce the paper's CPU-usage comparisons (Fig. 7).
package cpumodel

import (
	"time"

	"repro/internal/sim"
)

// Host is one server's CPU.
type Host struct {
	sim   *sim.Simulation
	cores *sim.Resource
}

// NewHost returns a host with the given core count.
func NewHost(s *sim.Simulation, cores int) *Host {
	return &Host{sim: s, cores: sim.NewResource(s, cores)}
}

// NumCores returns the host's core count.
func (h *Host) NumCores() int { return h.cores.Capacity() }

// Exec runs d of CPU work on one core, blocking p for queueing plus d.
func (h *Host) Exec(p *sim.Proc, d time.Duration) { h.cores.Use(p, d) }

// Utilization returns the average busy fraction of the host's cores.
func (h *Host) Utilization() float64 { return h.cores.Utilization() }

// BusyTime returns aggregate core-busy time.
func (h *Host) BusyTime() time.Duration { return h.cores.BusyTime() }

// Thread is a core held for an extended period (e.g. a DPDK data-channel
// thread pinned for the daemon's lifetime). Work executed on a Thread pays
// no per-operation acquire cost; the core counts as busy only while work
// runs (DPDK threads spin, but the paper reports effective CPU use as
// channels × cores, which per-work accounting reproduces).
type Thread struct {
	host *Host
}

// NewThread returns a thread abstraction on h.
func (h *Host) NewThread() *Thread { return &Thread{host: h} }

// Run executes d of CPU work on the thread (blocking p for exactly d —
// pinned threads do not queue against other threads).
func (t *Thread) Run(p *sim.Proc, d time.Duration) {
	t.host.cores.Acquire(p)
	p.Sleep(d)
	t.host.cores.Release()
}
