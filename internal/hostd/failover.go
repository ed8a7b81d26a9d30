package hostd

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/wire"
)

// Host-side switch-failure failover (README "Failure model").
//
// Every daemon tracks the switch epoch — the incarnation number the switch
// stamps into all non-data packets it emits or forwards. Three mechanisms
// cooperate:
//
//  1. Detection. While the daemon has active tasks, a prober sends periodic
//     TypeProbe packets; core.DefaultProbeMisses consecutive unanswered probes put the
//     daemon in degraded mode (the switch is silent). Independently, ANY
//     stamped packet whose epoch exceeds the daemon's reveals a reboot the
//     moment traffic resumes.
//
//  2. Degradation. In degraded mode nothing special happens at the hosts —
//     the sliding windows keep retransmitting (optionally with exponential
//     backoff), and once the switch is back, flow packets stream through it
//     UNREGISTERED: the switch has no reliability state for them, so it
//     forwards them whole (host-only path) and the receiver deduplicates and
//     aggregates them itself. Correctness never depends on the switch.
//
//  3. Recovery. A reboot wipes switch SRAM, losing every tuple the old
//     incarnation had absorbed but not yet surrendered to a receiver. On
//     observing an epoch advance each sender daemon re-registers its flows
//     at their current sequence position (RegisterFlowAt) and REPLAYS its
//     retained per-task packet history as TypeReplay packets — host-only
//     bypass traffic the switch never aggregates. The receiver reconciles
//     replays against what it already merged with a per-packet bitmap ledger
//     (claimBits), so tuples it received on the residue path are not double
//     counted and tuples lost in SRAM are recovered exactly once. Receiver
//     daemons re-allocate the switch regions of incomplete tasks, letting
//     fresh traffic aggregate in-network again (re-attach).
//
// Exactly-once across the INA → bypass transition holds because a tuple is
// counted at the receiver iff its (flow, seq, slot) bit is claimed in the
// ledger, and it is counted at teardown iff it was absorbed into the region
// fetched after all senders re-FINed (switchCommitted); the FIN-generation
// check guarantees the fetch happens only after every replay is merged.
// One subtlety: a recovery's RegisterFlowAt RPC lands on whatever incarnation
// is live NOW, which can be newer than the reboot that triggered it (the
// switch died again before the daemon noticed). Packets sent after such a
// registration are absorbed by the live incarnation and will surface through
// the teardown fetch — so replay must skip them, or they are counted twice.
// Each history record therefore carries the registration epoch at its first
// transmission (historyRec.absorbEpoch) and is replayed only if that
// incarnation has since died.

// FailoverStats counts failover activity at one daemon. It is a
// point-in-time view over the daemon's telemetry counters (metrics.go).
type FailoverStats struct {
	ProbesSent         int64
	ProbeTimeouts      int64
	EpochChanges       int64 // switch reboots observed
	Failovers          int64 // transitions into degraded mode
	Reattaches         int64 // completed recoveries
	ReplaysSent        int64 // TypeReplay packets transmitted
	ReplayTuplesMerged int64 // tuples recovered from replays (receiver side)
	DegradedTime       time.Duration
}

// FailoverStats returns a snapshot of the failover counters; if the daemon is
// currently degraded the open interval is included in DegradedTime.
func (d *Daemon) FailoverStats() FailoverStats {
	m := &d.met
	fs := FailoverStats{
		ProbesSent:         m.probesSent.Value(),
		ProbeTimeouts:      m.probeTimeouts.Value(),
		EpochChanges:       m.epochChanges.Value(),
		Failovers:          m.failovers.Value(),
		Reattaches:         m.reattaches.Value(),
		ReplaysSent:        m.replaysSent.Value(),
		ReplayTuplesMerged: m.replayTuplesMerged.Value(),
		DegradedTime:       time.Duration(m.degradedTimeNs.Value()),
	}
	if d.degraded {
		fs.DegradedTime += d.sim.Now().Sub(d.degradedAt)
	}
	return fs
}

// Epoch returns the latest switch incarnation this daemon has observed.
func (d *Daemon) Epoch() uint32 { return d.epoch }

// Degraded reports whether the daemon currently considers the switch
// unavailable (or is mid-recovery).
func (d *Daemon) Degraded() bool { return d.degraded }

// Stall freezes the daemon: every inbound and outbound frame is dropped
// until Resume. It models a host daemon crash where the shared-memory state
// survives (the application segments are crash-consistent); the sliding
// windows recover by ordinary retransmission after Resume.
func (d *Daemon) Stall() { d.stalled = true }

// Resume lifts a Stall.
func (d *Daemon) Resume() { d.stalled = false }

// bumpActivity tracks how many tasks (send or receive side) this daemon is
// involved in; the prober only runs while the count is positive, so an idle
// cluster quiesces.
func (d *Daemon) bumpActivity(delta int) {
	d.activity += delta
	if d.activity < 0 {
		panic(fmt.Sprintf("hostd: negative activity at host %d", d.host))
	}
	if delta > 0 {
		d.activitySig.Fire()
	}
}

// observeEpoch processes the epoch stamped into a received packet. A fresher
// epoch means the switch rebooted: enter degraded mode (if not already) and
// start recovery. The same epoch from a switch previously declared silent
// ends a silence-only degradation.
func (d *Daemon) observeEpoch(e uint32) {
	if e == 0 || !d.failover {
		return
	}
	if !window.SeqLess(d.epoch, e) {
		if e == d.epoch && d.degraded && !d.recovering {
			d.exitDegraded()
		}
		return
	}
	d.epoch = e
	d.met.epochChanges.Inc()
	d.tr.Emit(telemetry.CompHostd, "epoch_change", int64(d.host), int64(e), 0)
	d.enterDegraded()
	d.recovering = true
	d.recoveryGen++
	gen := d.recoveryGen
	// Channel recovery runs INLINE in each txLoop (no concurrent sender on
	// the flow); setting the request here is synchronous with frame receipt,
	// so any FIN the txLoop cuts after this point follows a replay.
	for _, ch := range d.channels {
		ch.recoverReq = gen
		ch.queueSig.Fire()
	}
	d.sim.Spawn(fmt.Sprintf("recover-h%d-g%d", d.host, gen), func(p *sim.Proc) {
		d.recoverProc(p, gen)
	})
}

func (d *Daemon) enterDegraded() {
	if d.degraded {
		return
	}
	d.degraded = true
	d.degradedAt = d.sim.Now()
	d.met.failovers.Inc()
	d.met.degraded.Set(1)
	d.tr.Emit(telemetry.CompHostd, "failover_enter", int64(d.host), int64(d.epoch), 0)
}

func (d *Daemon) exitDegraded() {
	if !d.degraded {
		return
	}
	interval := d.sim.Now().Sub(d.degradedAt)
	d.met.degradedTimeNs.Add(int64(interval))
	d.degraded = false
	d.met.degraded.Set(0)
	d.tr.Emit(telemetry.CompHostd, "failover_exit", int64(d.host), int64(d.epoch), int64(interval))
}

// probeLoop is the health prober: while the daemon has active tasks it sends
// switch-terminated TypeProbe packets and watches for replies. Misses back
// off exponentially so a long outage is probed gently; the first reply from
// a rebooted switch carries the new epoch and triggers recovery through the
// ordinary observeEpoch path.
func (d *Daemon) probeLoop(p *sim.Proc) {
	misses := 0
	for {
		for d.activity == 0 {
			misses = 0
			p.Wait(d.activitySig)
		}
		iv := core.DefaultProbeInterval
		if misses > 0 {
			shift := misses
			if shift > 5 {
				shift = 5
			}
			iv <<= uint(shift)
		}
		p.Sleep(iv)
		if d.activity == 0 || d.stalled {
			continue
		}
		d.probeSeq++
		seq := d.probeSeq
		probe := d.pool.NewPacket()
		probe.Type = wire.TypeProbe
		probe.Flow = d.ctrlCh.flow
		probe.Seq = seq
		d.send(d.host, probe, 0, true)
		d.met.probesSent.Inc()
		timeout := core.RetransmitTimeout
		deadline := d.sim.Now().Add(timeout)
		for window.SeqLess(d.probeReplySeq, seq) && d.sim.Now() < deadline {
			if !p.WaitTimeout(d.probeSig, deadline.Sub(d.sim.Now())) {
				break
			}
		}
		if !window.SeqLess(d.probeReplySeq, seq) {
			misses = 0
			continue
		}
		misses++
		d.met.probeTimeouts.Inc()
		if misses >= core.DefaultProbeMisses {
			d.enterDegraded()
		}
	}
}

// recoverProc drives one recovery generation: re-allocate switch regions for
// this daemon's incomplete receive tasks, then wait for every data channel's
// inline replay to finish. A newer generation (another reboot) abandons this
// one — its successor redoes the work.
func (d *Daemon) recoverProc(p *sim.Proc, gen uint32) {
	ids := make([]core.TaskID, 0, len(d.recvTasks))
	for id := range d.recvTasks {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		t := d.recvTasks[id]
		if t.completed || t.noRegion || t.switchCommitted || t.revoked {
			continue
		}
		if t.regionEpoch == d.epoch {
			continue // already re-allocated under this incarnation
		}
		if gen != d.recoveryGen {
			return
		}
		err := d.allocRegion(p, t, gen)
		if gen != d.recoveryGen {
			return
		}
		if err != nil {
			// No switch capacity for the re-attach: the task finishes on the
			// host-only path (its pre-crash absorbed tuples come via replay).
			t.noRegion = true
		}
	}
	for {
		if gen != d.recoveryGen {
			return
		}
		all := true
		for _, ch := range d.channels {
			if ch.recoveredGen < gen {
				all = false
				break
			}
		}
		if all {
			break
		}
		p.Wait(d.chRecoverSig)
	}
	d.recovering = false
	d.met.reattaches.Inc()
	d.tr.Emit(telemetry.CompHostd, "reattach", int64(d.host), int64(d.epoch), int64(gen))
	d.exitDegraded()
}

// reattachRetries bounds how many times an allocation that failed with a
// transient fabric degradation is retried before the task falls back to
// host-only for this incarnation.
const reattachRetries = 3

// allocRegion is the one region-allocation path: Submit's first allocation
// (gen 0) and the re-attach of recovery generation gen. It records the
// allocation in t. Under failover a *core.DegradedError from the controller
// means the fabric is (still) partially down rather than out of capacity, so
// the call is retried with exponential backoff up to reattachRetries times,
// and past that budget the task goes host-only (t.noRegion) — switch state
// is soft, and correctness never depends on it. The budget is bounded
// because the next fabric epoch re-triggers recovery anyway and an unbounded
// loop would pin the task off the host-only fallback. Permanent rejections
// (quota overloads, capacity) are returned at once: they fail a Submit and
// send a recovering task host-only. A recovery generation that has been
// superseded returns early with t untouched; its successor redoes the work.
func (d *Daemon) allocRegion(p *sim.Proc, t *recvTask, gen uint32) error {
	backoff := cpumodel.ControlRPCLatency
	for attempt := 0; ; attempt++ {
		p.Sleep(cpumodel.ControlRPCLatency)
		info, err := d.ctrl.AllocRegion(t.spec)
		var deg *core.DegradedError
		switch {
		case gen != 0 && gen != d.recoveryGen:
			return nil
		case err == nil:
			t.alloc, t.regionEpoch = info, d.epoch
			return nil
		case !d.failover || !errors.As(err, &deg):
			return err
		case attempt >= reattachRetries:
			t.noRegion = true
			return nil
		}
		d.tr.Emit(telemetry.CompHostd, "reattach_backoff", int64(t.spec.ID), int64(attempt+1), int64(backoff))
		p.Sleep(backoff)
		backoff *= 2
	}
}

// OnRegionRevoked is the receiver-side reaction to the controller revoking a
// task's switch region (softer failure than a reboot): drain the region's
// absorbed tuples into the host result exactly once, then continue the task
// on the host-only path. Safe to call more than once.
func (d *Daemon) OnRegionRevoked(task core.TaskID) {
	t := d.recvTasks[task]
	if t == nil || t.completed || t.noRegion || t.revoked || t.tearingDown {
		return
	}
	t.revoked = true
	t.revokedAt = d.sim.Now()
	d.sim.Spawn(fmt.Sprintf("drain-task%d", task), t.drainRevoked)
}

// drainRevoked fetches a revoked region (aggregation already disabled on the
// switch), commits it into the host result, and frees the rows. The draining
// flag holds off a concurrent teardown until the drain settles.
func (t *recvTask) drainRevoked(p *sim.Proc) {
	t.draining = true
	defer func() {
		t.draining = false
		t.finSig.Fire()
	}()
	all, ok := t.fetchAll(p, t.aggPoints()[:1])
	if !ok {
		// The switch rebooted mid-drain: the region (and its tuples) are
		// gone from SRAM; the replay protocol recovers them instead.
		t.noRegion = true
		return
	}
	if t.switchCommitted || t.completed {
		return
	}
	t.switchCommitted = true
	t.mergeEntries(p, all)
	t.noRegion = true
	p.Sleep(cpumodel.ControlRPCLatency)
	_ = t.d.ctrl.FreeRegion(t.spec.ID) // tolerated: a reboot may have freed it
}

// onRelease drops a completed task's retained replay history at a sender
// (the receiver sends taskRelease once the task result is final).
func (d *Daemon) onRelease(task core.TaskID) {
	st, ok := d.activeSends[task]
	if !ok {
		return
	}
	delete(d.activeSends, task)
	delete(d.channelFor(task).retained, task)
	st.history = nil
	d.bumpActivity(-1)
}

// channelRecovered marks one data channel's replay for generation gen done.
func (d *Daemon) channelRecovered(ch *dataChannel, gen uint32) {
	if ch.recoveredGen < gen {
		ch.recoveredGen = gen
	}
	d.chRecoverSig.Fire()
}
