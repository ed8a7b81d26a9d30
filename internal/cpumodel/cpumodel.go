// Package cpumodel models host CPU capacity and per-operation costs.
//
// The paper's testbed servers have 56 Xeon Gold 5120T cores (§5.1). Each
// simulated host owns a sim.Resource of that many cores; model code runs
// work as processes that hold a core for the operation's calibrated virtual
// duration. Busy-time metrics fall out of the resource accounting and reproduce the paper's CPU-usage comparisons (Fig. 7).
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

// Exec runs d of CPU work on one core, blocking p for queueing plus d.
func (h *Host) Exec(p *sim.Proc, d time.Duration) { h.cores.Use(p, d) }

// BusyTime returns aggregate core-busy time.
func (h *Host) BusyTime() time.Duration { return h.cores.BusyTime() }

// Thread is a core held for an extended period (e.g. a DPDK data-channel
// thread pinned for the daemon's lifetime). Work executed on a Thread pays
// no per-operation acquire cost; the core counts as busy only while work
// runs (DPDK threads spin, but the paper reports effective CPU use as
// channels × cores, which per-work accounting reproduces). A thread runs one
// piece of work at a time, for a process (Run) or a callback chain (Charge)
// alike: both go through the same acquire, hold and release.
type Thread struct {
	host *Host
	// d and then are the charge in progress: its duration, and what runs
	// once it is released.
	d    time.Duration
	then func()
	// grantedFn and doneFn are t.granted and t.done, bound once.
	grantedFn, doneFn func()
}

// NewThread returns a thread abstraction on h.
func (h *Host) NewThread() *Thread {
	t := &Thread{host: h}
	t.grantedFn, t.doneFn = t.granted, t.done
	return t
}

// Run executes d of CPU work on the thread, blocking p for d plus any wait
// for a core (none while the host has more cores than busy threads, as in
// every experiment).
func (t *Thread) Run(p *sim.Proc, d time.Duration) {
	if !t.Charge(d, p.Resumer()) {
		p.Park()
	}
}

// Charge is Run for callback chains. It acquires a core, holds it for d and
// releases it, and reports true when all of that happened in place: the
// clock has moved d on and the caller carries on. Otherwise it reports false,
// the caller returns, and then runs — from the event that would have resumed
// a process in Run, right after the release — at the instant the work is
// done. A wait for a core queues in the same FIFO as processes.
func (t *Thread) Charge(d time.Duration, then func()) bool {
	t.d, t.then = d, then
	if !t.host.cores.AcquireFunc(t.grantedFn) || !t.hold() {
		return false
	}
	t.host.cores.Release()
	return true
}

// hold keeps the acquired core for the charge's duration: in place (true),
// or until the event done runs in.
func (t *Thread) hold() bool {
	s := t.host.sim
	if at := s.Now().Add(t.d); !s.Advance(at) {
		s.At(at, t.doneFn)
		return false
	}
	return true
}

// granted runs when a Release hands a waiting charge its core.
func (t *Thread) granted() {
	if t.hold() {
		t.done()
	}
}

// done releases the core of a charge that did not finish in place and runs
// its continuation.
func (t *Thread) done() {
	t.host.cores.Release()
	t.then()
}
