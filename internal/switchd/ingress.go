package switchd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/wire"
)

// HandleIngress implements netsim.SwitchHandler: the switch's per-packet
// entry point.
func (sw *Switch) HandleIngress(f *netsim.Frame) {
	if sw.down {
		// A crashed switch is a black hole: nothing is forwarded, nothing is
		// acknowledged. Hosts detect the silence via probe timeouts.
		sw.met.droppedDown.Inc()
		var task, seq int64
		if f.Pkt != nil {
			task, seq = int64(f.Pkt.Task), int64(f.Pkt.Seq)
		}
		sw.tr.Emit(telemetry.CompSwitchd, "drop_down", task, seq, 0)
		f.Release() // black-holed: the packet is unreferenced
		return
	}
	// End-to-end integrity check (§3.3 failure model): a frame damaged in
	// flight arrives as raw bytes. A checksum failure quarantines it — the
	// drop is indistinguishable from a loss to the sender, whose
	// retransmission recovers the tuples. This covers every ingress type,
	// including the TypeReplay failover bypass path.
	wasRaw, err := f.Admit(sw.codec)
	if err != nil {
		sw.quarantine(f, err.Error())
		return
	}
	switch f.Pkt.Type {
	case wire.TypeData, wire.TypeLongKey, wire.TypeFin, wire.TypeReplay:
		sw.processFlowPacket(f)
	case wire.TypeSwap, wire.TypeFetch:
		if sw.opts.Addr != 0 && f.Dst != sw.opts.Addr {
			// Leaf/spine role: the request is for another aggregation point on
			// the path (e.g. the receiver swapping its spine region through
			// this leaf) — pass it along instead of consuming it.
			sw.forward(f)
			return
		}
		if f.Pkt.Type == wire.TypeSwap {
			sw.processSwap(f)
		} else {
			sw.processFetch(f)
		}
		f.Release() // switch-terminated: the request packet is done
	case wire.TypeProbe:
		// Switch-terminated like swap and fetch: the reply, carrying the
		// epoch, goes straight back to the prober, echoing Seq so it can
		// match request and reply.
		sw.met.probes.Inc()
		sw.reply(f, f.Src, &wire.Packet{Type: wire.TypeProbeReply, Task: f.Pkt.Task, Flow: f.Pkt.Flow, Seq: f.Pkt.Seq})
		f.Release()
	case wire.TypeAck, wire.TypeCtrl, wire.TypeFetchReply, wire.TypeProbeReply:
		sw.forward(f)
	default:
		if wasRaw {
			// Corruption forged an unknown type byte and verification let it
			// through: a real parser drops what it cannot dispatch.
			sw.quarantine(f, "forged type")
			return
		}
		panic(fmt.Sprintf("switchd: unknown packet type %v", f.Pkt.Type))
	}
}

// quarantine counts and drops a frame the integrity check rejected.
func (sw *Switch) quarantine(f *netsim.Frame, why string) {
	sw.met.corruptDropped.Inc()
	sw.tr.EmitNote(telemetry.CompSwitchd, "corrupt_drop", f.Task(), why)
	f.Release()
}

// reply sends pkt — an ACK, a fetch-reply chunk or a probe reply generated
// here in answer to frame f — to dst on behalf of f's destination, stamped
// with the epoch. It is the one place the switch originates a frame. The
// frame is owned: nothing here retains pkt, so the receiving host recycles
// it (steady-state acking cycles a handful of pooled packets).
func (sw *Switch) reply(f *netsim.Frame, dst core.HostID, pkt *wire.Packet) {
	sw.stamp(pkt)
	r := sw.pool.NewFrame()
	r.Src, r.Dst, r.Pkt = f.Dst, dst, pkt
	r.WireBytes, r.Owned = pkt.WireBytes(sw.cfg.KPartBytes), true
	sw.net.SwitchSend(r)
}

func (sw *Switch) forward(f *netsim.Frame) {
	sw.stamp(f.Pkt)
	sw.met.forwarded.Inc()
	sw.net.SwitchSend(f)
}

// stamp writes the switch's epoch into every non-data packet that leaves
// the switch (generated or forwarded). Data-bearing packets keep their
// liveness bitmap in the shared header bytes and carry no epoch.
func (sw *Switch) stamp(pkt *wire.Packet) {
	if pkt.Type == wire.TypeData || pkt.Type == wire.TypeReplay {
		return
	}
	pkt.Epoch = sw.epoch
}

// processFlowPacket runs the ASK pipeline for a sequenced flow packet
// (data, long-key, or FIN): the reliability stages always run; the AA
// stages run only for fresh data packets of tasks with a live region.
func (sw *Switch) processFlowPacket(f *netsim.Frame) {
	pkt := f.Pkt
	fi, registered := sw.flows[pkt.Flow]
	if !registered {
		// Unregistered flows get best-effort forwarding with no switch
		// reliability state; the host receiver still deduplicates.
		sw.met.unregisteredFwd.Inc()
		sw.forward(f)
		return
	}
	region := sw.regions[pkt.Task]
	w := uint32(sw.cfg.Window)

	ps := sw.pipe.Begin()

	// Stage 0: max_seq — advance and classify staleness (§3.3 corner case).
	stale := sw.raMaxSeq.RMW(ps, fi, func(cur uint64) (uint64, uint64) {
		cur32 := uint32(cur)
		if window.SeqLess(cur32, pkt.Seq) {
			return uint64(pkt.Seq), 0
		}
		if cur32-pkt.Seq >= w {
			return cur, 1
		}
		return cur, 0
	}) == 1
	if stale {
		sw.met.staleDropped.Inc()
		sw.tr.Emit(telemetry.CompSwitchd, "stale_drop", int64(pkt.Task), int64(pkt.Seq), 0)
		f.Release()
		return
	}
	// The task's counters, resolved once: every packet that gets this far
	// counts as acknowledged or forwarded below. A region carries its
	// task's entry; only a task without one takes the lookup's lock.
	var te *taskEntry
	if region != nil {
		te = region.te
	} else {
		te = sw.taskEntryOf(pkt.Task)
	}

	// Stage 1: copy indicator (data packets of live regions) and seen.
	copyIdx := 0
	if region != nil && pkt.Type == wire.TypeData {
		copyIdx = int(sw.raCopyInd.RMW(ps, region.idx, func(cur uint64) (uint64, uint64) {
			return cur, cur
		}))
	}
	seenSlot := fi*sw.cfg.Window + int(pkt.Seq%w)
	var observed bool
	if sw.seqTagged {
		// Residual streams skip sequence numbers, so the parity seen would
		// alias; match the full tag instead (window.SeenTagUpdate).
		observed = sw.raSeen.RMW(ps, seenSlot, func(cur uint64) (uint64, uint64) {
			next, obs := window.SeenTagUpdate(cur, pkt.Seq)
			if obs {
				return next, 1
			}
			return next, 0
		}) == 1
	} else {
		odd := (pkt.Seq/w)&1 == 1
		observed = sw.raSeen.RMW(ps, seenSlot, func(cur uint64) (uint64, uint64) {
			next, obs := window.SeenUpdate(cur, odd)
			if obs {
				return next, 1
			}
			return next, 0
		}) == 1
	}

	// Stages 2..9: vectorized aggregation for fresh data packets. Replay
	// packets run the reliability stages but are never aggregated — their
	// tuples belong to the host-only bypass path — and revoked regions no
	// longer aggregate (the degradation ladder's host-only rung).
	if pkt.Type == wire.TypeData && !observed && region != nil && !region.Revoked {
		sw.aggregate(ps, pkt, region, copyIdx, te)
	}
	if pkt.Type == wire.TypeData && !observed {
		te.dataPackets.Inc()
	}

	// Stage 10: PktState — record on first appearance, restore on
	// retransmission (Eq. 9–10).
	psIdx := fi*sw.cfg.Window + int(pkt.Seq%w)
	if !observed {
		sw.raPktState.RMW(ps, psIdx, func(cur uint64) (uint64, uint64) {
			return uint64(pkt.Bitmap), 0
		})
	} else {
		sw.met.dupPackets.Inc()
		restored := sw.raPktState.RMW(ps, psIdx, func(cur uint64) (uint64, uint64) {
			return cur, cur
		})
		if pkt.Type == wire.TypeData {
			pkt.Bitmap = wire.Bitmap(restored)
		}
		// The compact-seen replay decision (§3.3): the restored PktState
		// bitmap decides which tuples the retransmission still carries.
		sw.tr.Emit(telemetry.CompSwitchd, "seen_replay", int64(pkt.Task), int64(pkt.Seq), int64(restored))
	}

	// Egress: a data packet whose tuples were all consumed is dropped and
	// acknowledged to the sender; anything else continues to the receiver.
	if pkt.Type == wire.TypeData && pkt.Bitmap.Empty() {
		// The ACK goes to the packet's sender with the same sequence number
		// (§3.2.1), on behalf of the receiver.
		te.ackedPackets.Inc()
		sw.met.switchAcks.Inc()
		sw.reply(f, pkt.Flow.Host, sw.pool.NewAck(pkt))
		f.Release() // fully consumed: tuples live in the AAs, packet is done
		return
	}
	te.forwardedPackets.Inc()
	sw.forward(f)
}

// aggregate runs the AA stages for one packet: each logical tuple unit
// (short slot or medium group) is matched against its AA(s); consumed
// tuples have their bitmap bits cleared (§3.2.1). ts is the task's counters.
// The tuples are tallied in locals and each counter is added to once per
// packet, tuplesIn first: a concurrent reader (TaskStatsOf) loads aggregated
// before in, so it never sees more tuples aggregated than arrived.
func (sw *Switch) aggregate(ps *pisaPass, pkt *wire.Packet, region *Region, copyIdx int, ts *taskEntry) {
	var in, aggregated, conflicted, reserved int64
	rowBase := region.Lo + copyIdx*region.CopyRows
	if region.Copies == 1 {
		rowBase = region.Lo
	}

	// Short slots: one AA each. A partitioned region (multi-tenant) only
	// owns its band of slots; the zero partition scans the whole packet
	// exactly as the single-tenant switch always has.
	shortSlots := sw.layout.ShortSlots()
	sLo, sHi := 0, shortSlots
	gLo, gHi := 0, sw.cfg.MediumGroups
	if !region.Partition.IsZero() {
		sLo, sHi = region.Partition.ShortLo, region.Partition.ShortLo+region.Partition.ShortWidth
		gLo, gHi = region.Partition.GroupLo, region.Partition.GroupLo+region.Partition.GroupWidth
	}
	for i := sLo; i < sHi && i < len(pkt.Slots); i++ {
		if !pkt.Bitmap.Test(i) {
			continue
		}
		in++
		row := rowBase + int(rowHash(pkt.Slots[i].KPart)%uint64(region.CopyRows))
		if sw.slotRMW(ps, sw.raAAs[i], row, pkt.Slots[i], region.Op, true, &reserved) {
			pkt.Bitmap = pkt.Bitmap.Clear(i)
			aggregated++
		} else {
			conflicted++
		}
	}

	// Medium groups: m adjacent AAs with a unified row index. The value
	// rides in the last member; earlier members carry (segment, 0).
	m := sw.cfg.MediumSegs
	var scratch [64]uint64 // a group is at most NumAAs ≤ 64 slots: stays on the stack
	kparts := scratch[:m]
	for g := gLo; g < gHi; g++ {
		first := shortSlots + g*m
		if first >= len(pkt.Slots) {
			break
		}
		if !pkt.Bitmap.Test(first) {
			continue
		}
		in++
		for j := 0; j < m; j++ {
			kparts[j] = pkt.Slots[first+j].KPart
		}
		row := rowBase + int(rowHash(kparts...)%uint64(region.CopyRows))
		ok := true
		for j := 0; j < m; j++ {
			slot := pkt.Slots[first+j]
			last := j == m-1
			// Members after a failed one are skipped; by the pairing
			// invariant a group either fully matches/reserves or fails at
			// its first conflicting member without partial writes.
			if ok {
				ok = sw.slotRMW(ps, sw.raAAs[first+j], row, slot, region.Op, last, &reserved)
			}
		}
		if ok {
			for j := 0; j < m; j++ {
				pkt.Bitmap = pkt.Bitmap.Clear(first + j)
			}
			aggregated++
		} else {
			conflicted++
		}
	}
	if in == 0 {
		return
	}
	ts.tuplesIn.Add(in)
	// A packet of one or two tuples (rack-timed's) counts as few atomics as
	// per-tuple counting did: a total that stayed zero is not added.
	if aggregated > 0 {
		ts.tuplesAggregated.Add(aggregated)
	}
	if conflicted > 0 {
		ts.tuplesConflicted.Add(conflicted)
	}
	if reserved > 0 {
		sw.met.aaOccupancy.Add(reserved)
	}
}

// slotRMW performs one aggregator register action: match-or-reserve the key
// part, and fold the value if applyVal. It reports success, and counts a
// reservation of a blank entry in *reserved.
func (sw *Switch) slotRMW(ps *pisaPass, aa *pisaArray, row int, slot wire.Slot, op core.Op, applyVal bool, reserved *int64) bool {
	kp := sw.kPartN(slot.KPart)
	n := uint(8 * sw.cfg.KPartBytes)
	ok := aa.RMW(ps, row, func(cur uint64) (uint64, uint64) {
		curKP := cur >> n
		curV := cur & sw.nMask()
		switch {
		case curKP == 0: // blank: reserve
			*reserved++
			v := uint64(0)
			if applyVal {
				v = sw.encodeVal(op.Apply(op.Identity(), slot.Val))
			}
			return kp<<n | v, 1
		case curKP == kp: // match: fold
			v := curV
			if applyVal {
				v = sw.encodeVal(op.Apply(sw.decodeVal(curV), slot.Val))
			}
			return kp<<n | v, 1
		default: // conflict
			return cur, 0
		}
	})
	return ok == 1
}

// processSwap flips a region's copy indicator exactly once per swap sequence
// number (§3.4 Switch()) and acknowledges the receiver.
func (sw *Switch) processSwap(f *netsim.Frame) {
	pkt := f.Pkt
	region := sw.regions[pkt.Task]
	if region != nil {
		ps := sw.pipe.Begin()
		// Stage 0: swap_seq decides whether this notification is new.
		fresh := sw.raSwapSeq.RMW(ps, region.idx, func(cur uint64) (uint64, uint64) {
			if uint32(cur)+1 == pkt.Seq {
				return uint64(pkt.Seq), 1
			}
			return cur, 0
		}) == 1
		// Stage 1: conditional atomic flip of the copy indicator.
		if fresh {
			sw.raCopyInd.RMW(ps, region.idx, func(cur uint64) (uint64, uint64) {
				return cur ^ 1, 0
			})
			sw.met.swaps.Inc()
			sw.tr.Emit(telemetry.CompSwitchd, "shadow_swap", int64(pkt.Task), int64(pkt.Seq), 0)
		}
	}
	sw.reply(f, f.Src, sw.pool.NewAck(pkt))
}
