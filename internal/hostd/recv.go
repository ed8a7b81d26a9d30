package hostd

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/window"
	"repro/internal/wire"
)

// RecvTaskStats counts receiver-side activity for one task. It is a
// point-in-time view over the task's telemetry counters (metrics.go).
type RecvTaskStats struct {
	DataPackets   int64 // data packets processed (fresh)
	ResidueTuples int64 // tuples aggregated at the host
	LongTuples    int64 // long-key tuples (subset of ResidueTuples)
	ReplayTuples  int64 // tuples recovered from failover replays (subset)
	SwitchEntries int64 // aggregator entries merged from fetches
	Swaps         int64 // shadow-copy swaps completed
	// Degraded is how long the task ran without switch aggregation after a
	// region revocation (zero if the region was never revoked).
	Degraded time.Duration
}

// pktID identifies one sent data packet across the INA → bypass transition:
// a TypeData packet by its own (flow, seq), a TypeReplay by (flow, OrigSeq).
type pktID struct {
	flow core.FlowKey
	seq  uint32
}

// recvTask is the receiver-side state of one aggregation task: the shared
// memory segment, FIN tracking, and the shadow-copy machinery. Its lifecycle
// is its phase, two axes moved only through enter (phase.go).
type recvTask struct {
	d    *Daemon
	spec core.TaskSpec
	// alloc describes the switch allocation (partition + aggregation
	// points); the zero value is the single-switch legacy shape.
	alloc AllocInfo

	progress, region phase
	// changed fires on every move and every FIN: the teardown waits on it.
	changed *sim.Signal
	// done fires once, when the task reaches done: the application waits on it.
	done *sim.Signal

	seg segment // the task's shared-memory segment, until completion
	// result is what Wait returns: built from seg once, at completion.
	result core.Result
	// finned records, per sender, the generation (sender epoch) of its
	// latest FIN. A FIN only counts toward completion if its generation
	// matches the receiver's current epoch: after a switch reboot, stale
	// FINs cut before the sender replayed its history must not trigger the
	// final fetch (the replays have not arrived yet).
	finned map[core.HostID]uint32

	// merged is the per-packet reconciliation ledger (failover mode): which
	// slot bits of each sent packet this receiver has already counted. A
	// replay contributes only its unclaimed bits, so nothing double-counts
	// across the INA → bypass transition.
	merged map[pktID]wire.Bitmap

	pktsSinceSwap int
	// swapSig wakes the task's swap process (swapLoop) for the next round,
	// and once more when the task is done; nil until the first swap starts it.
	swapSig     *sim.Signal
	swapAckSig  *sim.Signal
	lastSwapAck uint32
	swapSeqNum  uint32
	activeCopy  int

	// regionEpoch is the switch incarnation under which the task's region
	// was (re-)allocated; recovery skips tasks already re-attached.
	regionEpoch uint32
	// revokedAt is when the controller revoked the region (failover.go);
	// zero if it never did — a task holds a region only after Submit's
	// allocation has slept, so a revocation is never at time zero.
	revokedAt sim.Time

	// fetched is the scratch the swap rounds and the teardown read their
	// snapshots into (fetchEntries) and mergeEntries consumes. The two never
	// overlap: teardown waits out a running swap, and no swap starts once it
	// has begun.
	fetched []wire.FetchEntry

	met recvMetrics
	// degraded is how long the task ran host-only after a region
	// revocation; set once at teardown.
	degraded time.Duration
}

// claimBits returns the not-yet-counted subset of b for packet (fk, seq) and
// records it as counted.
func (t *recvTask) claimBits(fk core.FlowKey, seq uint32, b wire.Bitmap) wire.Bitmap {
	id := pktID{fk, seq}
	prev := t.merged[id]
	eff := b &^ prev
	t.merged[id] = prev | b
	return eff
}

// allFinned reports whether every sender has FINished under the current
// switch incarnation.
func (t *recvTask) allFinned() bool {
	for _, s := range t.spec.Senders {
		if t.finned[s] < t.d.epoch {
			return false
		}
	}
	return true
}

// RecvHandle lets the receiving application wait for task completion and
// read the result from the shared-memory segment (§3.1 steps ⑩–⑪).
type RecvHandle struct{ t *recvTask }

// Wait blocks until the aggregation completes and returns the final result.
func (h *RecvHandle) Wait(p *sim.Proc) core.Result {
	for h.t.progress != done {
		p.Wait(h.t.done)
	}
	return h.t.result
}

// Stats returns a snapshot of the receiver-side counters.
func (h *RecvHandle) Stats() RecvTaskStats {
	t := h.t
	return RecvTaskStats{
		DataPackets:   t.met.dataPackets.Value(),
		ResidueTuples: t.met.residueTuples.Value(),
		LongTuples:    t.met.longTuples.Value(),
		ReplayTuples:  t.met.replayTuples.Value(),
		SwitchEntries: t.met.switchEntries.Value(),
		Swaps:         t.met.swaps.Value(),
		Degraded:      t.degraded,
	}
}

// Submit starts an aggregation task with this daemon's host as the receiver
// (§3.1 steps ①–⑤): it allocates the shared-memory segment, requests a
// switch memory region from the controller, and notifies every sender-side
// daemon over the control channel. It must run in process context (the
// control-plane RPC blocks).
func (d *Daemon) Submit(p *sim.Proc, spec core.TaskSpec) (*RecvHandle, error) {
	if spec.Receiver != d.host {
		return nil, fmt.Errorf("hostd: task %d receiver is host %d, submitted at %d", spec.ID, spec.Receiver, d.host)
	}
	if _, dup := d.recvTasks[spec.ID]; dup {
		return nil, fmt.Errorf("hostd: task %d already submitted", spec.ID)
	}
	t := &recvTask{
		d:          d,
		spec:       spec,
		progress:   streaming,
		region:     held,
		changed:    sim.NewSignal(d.sim),
		done:       sim.NewSignal(d.sim),
		seg:        segment{op: spec.Op},
		finned:     make(map[core.HostID]uint32),
		swapAckSig: sim.NewSignal(d.sim),
		met:        d.newRecvMetrics(spec.ID),
	}
	if spec.Rows < 0 {
		t.region = hostOnly
	}
	if d.failover {
		t.merged = make(map[pktID]wire.Bitmap)
	}
	if t.region == held {
		// The task is registered only once it holds its region (or has gone
		// host-only), so a recovery that starts meanwhile leaves it to this
		// allocation.
		if err := d.allocRegion(p, t, 0); err != nil {
			return nil, err
		}
	}
	d.recvTasks[spec.ID] = t
	if d.failover {
		d.bumpActivity(1)
	}
	// Notify sender daemons (reliably, over the control channel); local
	// senders are notified directly.
	n := taskNotify{Task: spec.ID, Receiver: d.host, Op: spec.Op, Partition: t.alloc.Partition}
	for _, s := range spec.Senders {
		if s == d.host {
			d.onNotify(n)
		} else {
			d.ctrlCh.send(p, s, n)
		}
	}
	return &RecvHandle{t}, nil
}

// SubmitSend is SubmitSendTimed with every arrival at offset zero: the
// stream is drained back to back.
func (d *Daemon) SubmitSend(task core.TaskID, stream core.Stream) {
	d.SubmitSendTimed(task, stream.Timed())
}

// SubmitSendTimed registers a sender-side stream for a task (§3.1 steps
// ⑥–⑦). The stream starts flowing once the receiver's notification has
// arrived; either order works. Tuples become available to the data channel
// at their arrival offsets (anchored at the moment the channel starts
// serving the task), so the whole protocol — packetization, windowing,
// congestion — runs under the trace's temporal shape.
func (d *Daemon) SubmitSendTimed(task core.TaskID, ts core.TimedStream) {
	st := &sendTask{id: task, stream: ts}
	if n, ok := d.notified[st.id]; ok {
		d.activateSend(st, n)
	} else {
		d.sendReady[st.id] = st
	}
}

// onNotify handles a task notification at a sender daemon.
func (d *Daemon) onNotify(n taskNotify) {
	if st, ok := d.sendReady[n.Task]; ok {
		delete(d.sendReady, n.Task)
		d.activateSend(st, n)
		return
	}
	d.notified[n.Task] = n
}

// activateSend queues the task on its data channel.
func (d *Daemon) activateSend(st *sendTask, n taskNotify) {
	st.receiver = n.Receiver
	st.part = n.Partition
	if d.failover {
		if _, dup := d.activeSends[st.id]; !dup {
			d.activeSends[st.id] = st
			d.bumpActivity(1)
		}
	}
	d.channelFor(st.id).enqueue(st)
}

// channelFor is the one task→channel assignment, for sending and for the
// release of what was sent: hash(ID) over the data channels (§3.1).
// Multi-tenant daemons with channel ranges installed (SetTenantChannels)
// hash within the owning tenant's range instead, so one tenant's backlog
// never queues behind another's; daemons without ranges keep the exact
// legacy assignment.
func (d *Daemon) channelFor(task core.TaskID) *dataChannel {
	if r, ok := d.tenantCh[task.Tenant()]; ok {
		return d.channels[r.lo+int(task)%r.n]
	}
	return d.channels[int(task)%len(d.channels)]
}

// SetTenantChannels dedicates the contiguous data-channel range [lo, lo+n)
// to a tenant's send tasks. Installing any range switches task→channel
// assignment to per-tenant hashing for the tenants covered; tenants without
// a range (and daemons where this is never called) use the legacy global
// hash. Call at cluster construction time, before tasks flow.
func (d *Daemon) SetTenantChannels(tenant core.TenantID, lo, n int) error {
	if lo < 0 || n <= 0 || lo+n > len(d.channels) {
		return fmt.Errorf("hostd: tenant %d channel range [%d,%d) outside 0..%d", tenant, lo, lo+n, len(d.channels))
	}
	if d.tenantCh == nil {
		d.tenantCh = make(map[core.TenantID]chRange)
	}
	d.tenantCh[tenant] = chRange{lo: lo, n: n}
	return nil
}

// serveInbound serves one flow packet, the receive queue's head entry with
// its slot and long-key runs, in two steps. The first runs the instant the
// packet reaches the head of the queue: the transport ACK went out at arrival
// (HandleFrame); here the packet is classified exactly once, the failover
// ledger claims its bits (claimBits) and its CPU cost is reckoned. The
// second, once the charge is paid, merges a fresh packet with what the first
// reckoned.
func (ch *dataChannel) serveInbound(it *rxItem, slots []wire.Slot, long []wire.LongKV, step int) rxWait {
	d := ch.d
	if step == 0 {
		ch.rxMerge = false
		verdict := d.dedupFor(it.flow).Observe(it.seq)
		if verdict == window.Stale {
			return rxWait{}
		}
		if verdict == window.Duplicate {
			return rxWait{charge: cpumodel.PacketIOCost}
		}
		t := d.recvTasks[it.task]
		// eff selects the slotted tuples to merge here; they and a long-key
		// packet's tuples are what the CPU charge counts.
		var eff wire.Bitmap
		switch it.typ {
		case wire.TypeData:
			eff = it.bitmap
			if d.failover && t != nil && t.progress != done {
				eff = t.claimBits(it.flow, it.seq, it.bitmap)
			}
		case wire.TypeReplay:
			// Failover replay: merge only the bits not already counted from
			// the original packet's residue path, and nothing at all once
			// switch state has been committed (the replayed tuples were
			// either merged then or surrendered by the pre-reboot switch —
			// never both).
			if t != nil && t.merged != nil && !t.switchCommitted() {
				eff = t.claimBits(it.flow, it.origSeq, it.bitmap)
			}
		}
		short, medium := d.groupStarts(int(it.width))
		tuples := (eff & short).Count() + (eff & medium).Count() + len(long)
		ch.rxMerge, ch.rxTask, ch.rxEff, ch.rxTuples = true, t, eff, tuples
		return rxWait{charge: cpumodel.PacketIOCost + time.Duration(tuples)*cpumodel.HostAggregateCost}
	}
	t, tuples := ch.rxTask, int64(ch.rxTuples)
	ch.rxTask = nil
	if !ch.rxMerge {
		return rxWait{}
	}
	d.met.packetsReceived.Inc()
	if t != nil && t.progress != done {
		d.residue(slots, it.bitmap, ch.rxEff, int(it.width), t.mergeGroup)
		for _, lk := range long { // a long-key packet's tuples; empty on every other type
			t.seg.addLong(lk)
		}
		t.met.residueTuples.Add(tuples)
		t.met.longTuples.Add(int64(len(long)))
		d.met.residueTuples.Add(tuples)
		switch it.typ {
		case wire.TypeData:
			t.met.dataPackets.Inc()
			t.pktsSinceSwap++
			t.maybeSwap()
		case wire.TypeReplay:
			t.met.replayTuples.Add(tuples)
			d.met.replayTuplesMerged.Add(tuples)
			d.tr.Emit(telemetry.CompHostd, "replay_merged", int64(it.task), int64(it.origSeq), tuples)
		case wire.TypeFin:
			t.onFin(it.flow.Host, it.origSeq)
		}
	}
	return rxWait{}
}

// mergeGroup folds one residue tuple — key in the slots of group, value in
// the last — into the segment.
func (t *recvTask) mergeGroup(group []wire.Slot) { t.seg.addGroup(t.d.layout, group, false) }

// combineGroup folds one fetched aggregator — a partial aggregate, so it
// Combines (Count adds) — into the segment.
func (t *recvTask) combineGroup(group []wire.Slot) { t.seg.addGroup(t.d.layout, group, true) }

// onFin records a sender's FIN with its generation; once every sender has
// finished under the current switch incarnation, teardown begins (§3.1
// steps ⑨–⑫).
func (t *recvTask) onFin(sender core.HostID, gen uint32) {
	if gen == 0 {
		gen = 1 // pre-failover senders carry no generation
	}
	if t.finned[sender] < gen {
		t.finned[sender] = gen
	}
	t.changed.Fire()
	if t.progress == streaming && t.allFinned() {
		t.enter(finishing)
		t.d.sim.Spawn(fmt.Sprintf("teardown-task%d", t.spec.ID), t.teardown)
	}
}

// teardown fetches the remaining switch state, merges it with the local
// result, and releases the switch region. It waits for every FIN under the
// current switch incarnation and for a running swap round or drain to end.
// Under failover the wait re-arms: a switch reboot observed mid-fetch
// invalidates the FIN set (senders will replay and re-FIN under the new
// epoch), and the fetched entries of the dead incarnation are discarded.
func (t *recvTask) teardown(p *sim.Proc) {
	var all []wire.FetchEntry
	for ok := false; !ok; {
		for !t.allFinned() || t.region == swapping || t.region == revoked || t.region == draining {
			p.Wait(t.changed)
		}
		if t.region != held {
			break // host-only or drained: the switch holds nothing of the result
		}
		all, ok = t.fetchAll(p, t.aggPoints())
	}
	// Commit point: from here on, replays are ignored — every absorbed
	// tuple is either in `all` or was already claimed on the residue
	// path. No yields between fetchAll's epoch check and this line.
	t.enter(committed)
	t.mergeEntries(p, all)
	if t.region == held {
		p.Sleep(cpumodel.ControlRPCLatency)
		if err := t.d.ctrl.FreeRegion(t.spec.ID); err != nil && !t.d.failover {
			// Under failover a reboot may have freed the region already;
			// otherwise a free failure is a protocol bug.
			panic(fmt.Sprintf("hostd: freeing region of task %d: %v", t.spec.ID, err))
		}
	}
	if t.revokedAt != 0 {
		t.degraded = t.d.sim.Now().Sub(t.revokedAt)
	}
	// Nothing merges into a completed task, so the segment is read once and
	// let go.
	t.result, t.seg = t.seg.result(), segment{}
	t.enter(done)
	if t.d.failover {
		// Release the senders' retained replay history: the result is final.
		for i, s := range t.spec.Senders {
			if slices.Contains(t.spec.Senders[:i], s) {
				continue // released already
			}
			if s == t.d.host {
				t.d.onRelease(t.spec.ID)
			} else {
				t.d.ctrlCh.send(p, s, taskRelease{Task: t.spec.ID})
			}
		}
		t.d.bumpActivity(-1)
	}
	t.done.Fire()
	if t.swapSig != nil {
		t.swapSig.Fire() // the swap process returns
	}
}

// aggPoints lists the task's aggregation points: the fabric addresses to
// fetch/clear/swap at, defaulting to the legacy first-hop switch (requests
// addressed to this host, consumed by the switch on the path).
func (t *recvTask) aggPoints() []core.HostID {
	if len(t.alloc.FetchFrom) > 0 {
		return t.alloc.FetchFrom
	}
	return []core.HostID{t.d.host}
}

// fetchAll reads every copy of the task's region at each of points. ok is
// false when the switch epoch moved meanwhile: the snapshot then belongs to
// a dead incarnation (the replay protocol recovers its tuples) and is
// discarded. No yield separates the last epoch check from the return.
func (t *recvTask) fetchAll(p *sim.Proc, points []core.HostID) (all []wire.FetchEntry, ok bool) {
	e := t.d.epoch
	copies := 1
	if t.d.cfg.SwapThreshold > 0 { // shadow copies on
		copies = 2
	}
	all = t.fetched[:0]
	for pi, point := range points {
		for c := 0; c < copies; c++ {
			n := len(all)
			all = t.d.fetchEntries(p, all, t.spec.ID, c, false, point)
			t.fetched = all
			if t.d.epoch != e {
				return nil, false
			}
			// mergeEntries groups medium entries by (group, row), but rows
			// fetched from different aggregation points are unrelated
			// coordinate spaces: a same-row collision across points would look
			// like an overfull group. Row is only a grouping key host-side, so
			// offsetting per point keeps the spaces apart; point 0 stays
			// untouched (identical to the single-switch path).
			for i := n; i < len(all); i++ {
				all[i].Row += pi * fetchRowStride
			}
		}
	}
	return all, true
}

// maybeSwap triggers a shadow-copy swap when enough packets have reached
// the receiver since the last one (§3.4: forwarded packets indicate
// aggregator conflicts, i.e. pressure on the active copy).
//
// Tasks spread over several aggregation points (hierarchical fat-tree
// re-aggregation) never swap: one swap packet flips one switch's copy
// indicator, and flipping the points one by one would let a sender's packet
// meet different active copies at different tiers — the §3.4 quiescence
// argument only covers the single-switch deployment. A leaf's conflict
// residue gets its second chance at the task's spine instead, and the
// receiver merges the rest.
func (t *recvTask) maybeSwap() {
	if t.d.cfg.SwapThreshold == 0 || t.region != held || t.progress != streaming ||
		len(t.alloc.FetchFrom) > 1 || t.pktsSinceSwap < t.d.cfg.SwapThreshold {
		return
	}
	t.enter(swapping)
	t.pktsSinceSwap = 0
	t.d.met.swapsTriggered.Inc()
	if t.swapSig == nil {
		t.swapSig = sim.NewSignal(t.d.sim)
		t.d.sim.Spawn(fmt.Sprintf("swap-task%d", t.spec.ID), t.swapLoop)
		return
	}
	t.swapSig.Fire()
}

// swapLoop is the task's swap process, started by its first swap: one round
// per wake-up. Waking it schedules one event at the current instant, exactly
// as spawning a process per round did, so the event order is unchanged. The
// teardown wakes it once more when the task is done, with no round to run,
// and it returns.
func (t *recvTask) swapLoop(p *sim.Proc) {
	for t.region == swapping {
		t.runSwap(p)
		p.Wait(t.swapSig)
	}
}

// runSwap executes one swap: notify the switch (exactly-once via the swap
// sequence), then fetch, merge, and clear the now-idle copy so hot keys can
// reseize aggregators.
func (t *recvTask) runSwap(p *sim.Proc) {
	t.swapSeqNum++
	seq := t.swapSeqNum
	old := t.activeCopy
	pkt := wire.Packet{
		Type: wire.TypeSwap,
		Task: t.spec.ID,
		Flow: core.FlowKey{Host: t.d.host, Channel: t.d.ctrlCh.flow.Channel},
		Seq:  seq,
	}
	// A single non-legacy aggregation point (e.g. a one-leaf task on a
	// fat-tree) swaps that switch by address; the legacy path stays
	// self-addressed and is consumed by the switch on the path.
	dst := t.aggPoints()[0]
	t.d.request(p, dst, &pkt, t.swapAckSig, core.RetransmitTimeout, func() bool {
		return !window.SeqLess(t.lastSwapAck, seq)
	})
	t.activeCopy ^= 1
	t.fetched = t.d.fetchEntries(p, t.fetched[:0], t.spec.ID, old, true, dst)
	t.mergeEntries(p, t.fetched)
	t.met.swaps.Inc()
	t.d.tr.Emit(telemetry.CompHostd, "swap_complete", int64(t.spec.ID), int64(seq), int64(len(t.fetched)))
	t.enter(held)
}

// onSwapAck records the switch's swap acknowledgment.
func (t *recvTask) onSwapAck(seq uint32) {
	if window.SeqLess(t.lastSwapAck, seq) {
		t.lastSwapAck = seq
	}
	t.swapAckSig.Fire()
}

// mergeEntries folds fetched aggregator entries into the task result,
// reconstructing short keys directly and medium keys from their coalesced
// group members. It consumes entries: the medium ones are gathered and sorted
// at its front.
func (t *recvTask) mergeEntries(p *sim.Proc, entries []wire.FetchEntry) {
	if len(entries) == 0 {
		return
	}
	t.d.cpu.Exec(p, time.Duration(len(entries))*cpumodel.HostAggregateCost)
	layout := t.d.layout
	shortSlots := layout.ShortSlots()
	m := t.d.cfg.MediumSegs
	groupOf := func(e wire.FetchEntry) int { return (e.AA - shortSlots) / m }
	medium := entries[:0]   // behind the range below: it only overwrites entries already read
	var slots [64]wire.Slot // a group is at most NumAAs ≤ 64 slots
	group := slots[:1]
	for _, e := range entries {
		if e.AA >= shortSlots {
			medium = append(medium, e)
			continue
		}
		group[0] = wire.Slot{KPart: e.KPart, Val: e.Val}
		t.combineGroup(group)
	}
	// The members of a medium tuple meet by (group, row), and tuples merge in
	// that order — a fixed one, whatever order the chunks arrived in. The
	// sort is stable so that what a forged duplicate member overwrites does
	// not depend on the sort either.
	slices.SortStableFunc(medium, func(a, b wire.FetchEntry) int {
		return cmp.Or(cmp.Compare(groupOf(a), groupOf(b)), cmp.Compare(a.Row, b.Row))
	})
	group = slots[:m]
	for len(medium) > 0 {
		g, n := groupOf(medium[0]), 1
		for n < len(medium) && groupOf(medium[n]) == g && medium[n].Row == medium[0].Row {
			n++
		}
		es := medium[:n]
		medium = medium[n:]
		if n != m {
			// An incomplete medium group is impossible on an honest build:
			// the switch writes all m members of a group atomically, and the
			// end-to-end checksum quarantines forged packets before they can
			// touch aggregator state. With verification disabled (the
			// DisableChecksumVerify fault hook), corrupted bytes can forge
			// partial groups; downgrade the assertion to data loss so the
			// chaos soak harness observes a conservation violation instead
			// of a crashed process.
			if t.d.cfg.DisableChecksumVerify {
				continue
			}
			panic(fmt.Sprintf("hostd: medium group %d row %d has %d of %d members", g, es[0].Row, n, m))
		}
		for _, e := range es {
			group[e.AA-shortSlots-g*m] = wire.Slot{KPart: e.KPart, Val: e.Val}
		}
		t.combineGroup(group)
	}
	t.met.switchEntries.Add(int64(len(entries)))
	t.d.met.switchTuples.Add(int64(len(entries)))
}

// fetchRetry is the receiver's fetch/clear retransmission interval; it must
// comfortably exceed one reply chunk's round trip.
const fetchRetry = 500 * time.Microsecond

// fetchRowStride separates the copy-relative row spaces of distinct
// aggregation points when their entries are merged together; it only needs
// to exceed any region's CopyRows.
const fetchRowStride = 1 << 20

// fetchReq tracks one in-flight fetch (or clear) request. Requests come from
// the daemon's free list (newFetchReq), chunk buffers and signal included.
type fetchReq struct {
	id    uint32
	clear bool
	// chunks[c] is reply chunk c, copied out of its packet; got counts the
	// distinct chunks in.
	chunks   []fetchChunk
	got      int
	total    int
	cleared  bool
	progress *sim.Signal
}

type fetchChunk struct {
	in      bool
	entries []wire.FetchEntry
}

// addChunk copies a reply chunk in — the frame is released on return — and
// keeps the first copy of each.
func (fr *fetchReq) addChunk(pkt *wire.Packet) {
	fr.total = int(pkt.FetchChunks)
	c := int(pkt.FetchChunk)
	if c >= len(fr.chunks) {
		fr.chunks = append(fr.chunks, make([]fetchChunk, c+1-len(fr.chunks))...)
	}
	if ch := &fr.chunks[c]; !ch.in {
		ch.in = true
		ch.entries = append(ch.entries, pkt.FetchEntries...)
		fr.got++
	}
	fr.progress.Fire()
}

// answered reports a clear acknowledged, or a read with every chunk in. The
// chunk test uses >= because a fetch retried across a switch reboot can see
// a smaller chunk total than an earlier partial reply delivered (the region
// no longer exists, so the reply is a single empty chunk); callers discard
// epoch-crossed snapshots anyway.
func (fr *fetchReq) answered() bool {
	if fr.clear {
		return fr.cleared
	}
	return fr.total >= 0 && fr.got >= fr.total
}

// request is the one reliable exchange with an aggregation point, used by
// swap, fetch and clear: send a pooled copy of req to dst, and again every
// retry interval, until answered reports that the reply — which fires sig —
// has arrived. The switch makes each of the three idempotent per Seq, so
// resending is always safe. dst == d.host is the legacy single-switch shape
// (the request is consumed by the switch on the path); any other address
// names a leaf or spine on a multi-switch fabric.
func (d *Daemon) request(p *sim.Proc, dst core.HostID, req *wire.Packet, sig *sim.Signal, retry time.Duration, answered func() bool) {
	d.send(dst, d.pool.Clone(req), 0, true)
	for !answered() {
		if !p.WaitTimeout(sig, retry) && !answered() {
			d.send(dst, d.pool.Clone(req), 0, true)
		}
	}
}

// fetch issues one fetch or clear of a task's region copy at dst under a
// fresh request id and blocks until it is answered. Ids are strictly
// increasing per daemon, which is what makes a clear exactly-once at the
// switch (clear_seq). The caller hands the answered request back to
// d.fetchFree once it has read the chunks.
func (d *Daemon) fetch(p *sim.Proc, dst core.HostID, task core.TaskID, copy int, clear bool) *fetchReq {
	fr := d.newFetchReq(clear)
	d.fetchReqs[fr.id] = fr
	req := wire.Packet{
		Type:       wire.TypeFetch,
		Task:       task,
		Flow:       core.FlowKey{Host: d.host, Channel: d.ctrlCh.flow.Channel},
		Seq:        fr.id,
		FetchCopy:  copy,
		FetchClear: clear,
	}
	d.request(p, dst, &req, fr.progress, fetchRetry, fr.answered)
	delete(d.fetchReqs, fr.id)
	return fr
}

// newFetchReq draws a blank request under the next id from the daemon's free
// list. A request goes back on it answered, and an answer fires its signal —
// which empties the signal's waiters — so a reused signal wakes nobody left
// over from an earlier request.
func (d *Daemon) newFetchReq(clear bool) *fetchReq {
	var fr *fetchReq
	if n := len(d.fetchFree); n > 0 {
		fr, d.fetchFree = d.fetchFree[n-1], d.fetchFree[:n-1]
	} else {
		fr = &fetchReq{progress: sim.NewSignal(d.sim)}
	}
	d.nextFetch++
	fr.id, fr.clear, fr.got, fr.total, fr.cleared = d.nextFetch, clear, 0, -1, false
	for i := range fr.chunks {
		fr.chunks[i].in, fr.chunks[i].entries = false, fr.chunks[i].entries[:0]
	}
	return fr
}

// fetchEntries reliably reads one copy of a task's region (§3.4 Read) at
// aggregation point dst, appending the snapshot to buf: an idempotent
// snapshot fetch, followed (optionally) by an idempotent clear.
func (d *Daemon) fetchEntries(p *sim.Proc, buf []wire.FetchEntry, task core.TaskID, copy int, clear bool, dst core.HostID) []wire.FetchEntry {
	fr := d.fetch(p, dst, task, copy, false)
	for c := 0; c < fr.total && c < len(fr.chunks); c++ {
		buf = append(buf, fr.chunks[c].entries...)
	}
	d.fetchFree = append(d.fetchFree, fr)
	if clear {
		d.fetchFree = append(d.fetchFree, d.fetch(p, dst, task, copy, true))
	}
	return buf
}
