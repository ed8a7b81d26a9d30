package switchd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/window"
)

// Switch failure and recovery (failure model, README "Failure model"):
//
// The switch carries an epoch — an incarnation counter starting at 1 —
// stamped into every non-data packet it emits or forwards. A crash turns the
// switch into a black hole; a reboot clears every register array and
// control-plane table (flows, regions, row allocator) and advances the
// epoch. Hosts observe the silence via probe timeouts and the new
// incarnation via the epoch stamped in ACKs and probe replies, then
// re-attach: flows re-register at their current sequence position via
// RegisterFlowAt and receivers re-allocate regions.
//
// Per-task AA-region revocation is the softer failure: the region stops
// aggregating (packets stream through to the receiver with their liveness
// bitmaps intact — the host-only path) but its memory stays readable so the
// receiver can drain already-absorbed tuples exactly before freeing it.

// Epoch returns the switch's current incarnation number.
func (sw *Switch) Epoch() uint32 { return sw.epoch }

// Down reports whether the switch is crashed.
func (sw *Switch) Down() bool { return sw.down }

// Crash takes the switch down: every subsequent frame is silently dropped
// until Reboot. Register and control-plane state become irrelevant — a
// reboot will wipe them — but are left in place so tests can inspect the
// pre-crash state.
func (sw *Switch) Crash() {
	sw.down = true
	sw.met.crashes.Inc()
	sw.tr.Emit(telemetry.CompSwitchd, "crash", 0, int64(sw.epoch), 0)
}

// Reboot brings a crashed (or live) switch back up as a fresh incarnation:
// the epoch advances and ALL data-plane registers and control-plane tables
// are reset, exactly as a power cycle of a physical switch would. Per-task
// telemetry (TaskStatsOf) survives — it models the monitoring plane, not
// switch SRAM.
func (sw *Switch) Reboot() {
	sw.down = false
	sw.epoch++
	sw.met.reboots.Inc()
	sw.tr.Emit(telemetry.CompSwitchd, "epoch_change", 0, int64(sw.epoch), 0)

	sw.wipeFlows()
	sw.raSwapSeq.ControlFill(0, sw.opts.MaxRegions, 0)
	sw.raClearSeq.ControlFill(0, sw.opts.MaxRegions, 0)
	sw.raCopyInd.ControlFill(0, sw.opts.MaxRegions, 0)
	sw.clearAARange(0, sw.cfg.AARows)
	sw.resetRegions()
}

// resetRegions empties the region table and the row allocator: the state
// of a switch that has allocated nothing (New, Reboot).
func (sw *Switch) resetRegions() {
	sw.regions = make(map[core.TaskID]*Region)
	sw.regionFree = sw.regionFree[:0]
	for i := sw.opts.MaxRegions - 1; i >= 0; i-- {
		sw.regionFree = append(sw.regionFree, i)
	}
	sw.rows = newRowAllocator(sw.cfg.AARows)
}

// SetEpoch installs a controller-assigned incarnation number. Multi-switch
// fabrics share one fabric-wide epoch: any switch outage (crash or reboot)
// advances it, and the fabric controller pushes the new value into every
// live switch so hosts observe a single coherent incarnation sequence no
// matter which switch stamps their packets. The epoch only moves forward;
// an older or equal value is ignored.
//
// Like a reboot, the new incarnation invalidates the flow reliability
// plane: registrations and their registers (max_seq, seen, PktState) are
// wiped, and every flow must re-register (RegisterFlowAt) before this
// switch absorbs its tuples again. This is what keeps the sender-side
// absorbEpoch bookkeeping sound across a bump (historyRec): if surviving
// registrations outlived the epoch, a not-yet-recovered sender's packets
// could be absorbed into a region re-allocated under the NEW incarnation
// while its history records still carry the old registration epoch — the
// later replay would re-deliver those tuples on top of the teardown fetch
// (double count). Unlike Reboot, regions and aggregator state are NOT
// wiped here; the controller separately frees the regions whose absorbed
// tuples the epoch bump consigns to sender replay.
func (sw *Switch) SetEpoch(e uint32) {
	if !window.SeqLess(sw.epoch, e) {
		return
	}
	sw.epoch = e
	sw.wipeFlows()
	sw.tr.Emit(telemetry.CompSwitchd, "epoch_change", 0, int64(e), 0)
}

// wipeFlows resets the flow reliability plane — every registration and its
// max_seq, seen and PktState registers — as a new incarnation requires,
// whether it arrives by Reboot or by SetEpoch.
func (sw *Switch) wipeFlows() {
	w := sw.cfg.Window
	sw.raMaxSeq.ControlFill(0, sw.opts.MaxFlows, 0)
	sw.raSeen.ControlFill(0, sw.opts.MaxFlows*w, 0)
	sw.raPktState.ControlFill(0, sw.opts.MaxFlows*w, 0)
	sw.flows = make(map[core.FlowKey]int)
	sw.nextFlow = 0
}

// RegisterFlowAt registers a data-channel flow whose next sequence number is
// start — the re-attach path after a reboot, where a flow's window is
// mid-stream rather than at zero. The flow's reliability registers are
// initialized so that start and everything after it is classified fresh:
//
//   - max_seq := start−1 (serial arithmetic; correct even for start == 0);
//   - each compact-seen bit is prepared for the parity of the first segment
//     that will touch it (NewCompactSeenAt's invariant, §3.3 Eq. 8);
//   - the PktState store is zeroed.
func (sw *Switch) RegisterFlowAt(fk core.FlowKey, start uint32) (int, error) {
	idx, err := sw.RegisterFlow(fk)
	if err != nil {
		return 0, err
	}
	w := sw.cfg.Window
	sw.raMaxSeq.ControlWrite(idx, uint64(uint32(start-1)))
	r0 := int(start) & (w - 1)
	odd0 := (start/uint32(w))&1 == 1
	prepared := func(odd bool) uint64 {
		if odd {
			return 1
		}
		return 0
	}
	for r := 0; r < w; r++ {
		bit := prepared(!odd0)
		if r >= r0 {
			bit = prepared(odd0)
		}
		sw.raSeen.ControlWrite(idx*w+r, bit)
		sw.raPktState.ControlWrite(idx*w+r, 0)
	}
	return idx, nil
}

// RevokeRegion disables aggregation for a task's region without freeing it:
// subsequent data packets stream through to the receiver untouched (the
// host-only path), while the region's aggregators stay readable so the
// receiver can fetch the already-absorbed tuples exactly once before
// releasing the rows with FreeRegion. This models the controller reclaiming
// AA capacity from a tenant under memory pressure (cf. P4COM's fallback to
// host processing).
func (sw *Switch) RevokeRegion(task core.TaskID) error {
	r, ok := sw.regions[task]
	if !ok {
		return fmt.Errorf("switchd: task %d has no region to revoke", task)
	}
	if !r.Revoked {
		r.Revoked = true
		sw.met.revocations.Inc()
		sw.tr.Emit(telemetry.CompSwitchd, "region_revoked", int64(task), 0, 0)
	}
	return nil
}
