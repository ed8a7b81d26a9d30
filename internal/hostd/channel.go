package hostd

import (
	"maps"
	"math/bits"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/wire"
)

// sendTask is one application stream queued on a data channel. The stream is
// paced on the sim clock by its arrival offsets; a plain stream is one whose
// offsets are all zero, drained back to back.
type sendTask struct {
	id       core.TaskID
	receiver core.HostID
	stream   core.TimedStream
	// part is the task's keyspace band from the receiver's notification
	// (zero = whole keyspace): the packetizer routes only this band's keys
	// into switch slots.
	part keyspace.Partition
	// finished is set once the stream and its FIN are acknowledged, or the
	// transport aborted: a recovery re-FINs only a finished task.
	finished bool
	// err records a transport abort (MaxRetries exhausted); the stream was
	// not fully delivered.
	err error
	// history retains every sent data packet for failover replay (failover
	// mode only); released when the receiver confirms the task result.
	history []historyRec
}

// historyRec is one retained data packet plus the switch incarnation whose
// reliability state covered its first transmission. absorbEpoch is the
// channel's registration epoch at send time: the only incarnation that can
// have absorbed the packet's tuples into SRAM (a rebooted switch classifies
// old sequence numbers as observed and forwards them whole; an unregistered
// flow — absorbEpoch 0 — is forwarded whole unconditionally). Replay after a
// reboot must skip records whose absorbEpoch is the incarnation the flow just
// re-registered on: that state did not die, so the absorbed tuples are still
// in the live region the receiver will fetch at teardown, and replaying them
// would double-count.
type historyRec struct {
	pkt         *wire.Packet
	absorbEpoch uint32
}

// dataChannel is one duplex persistent channel: a send loop draining queued
// tasks through the sliding window, and a receive queue processing inbound
// flow packets, each charged to the channel's CPU thread. Per-packet work runs
// to completion as chains of events (the DPDK run-to-completion model,
// §3.1): the receive queue's (rxQueue.run) and, for the task txLoop is
// serving, the send chain (txRun); txLoop stays a process for the task
// boundaries, the FIN and failover recovery.
type dataChannel struct {
	d    *Daemon
	flow core.FlowKey
	win  *window.Sender
	// uplink is the host's NIC link, for the TX-ring throttle.
	uplink *netsim.Link

	queue    fifo[*sendTask]
	queueSig *sim.Signal
	curDst   core.HostID

	// retained maps tasks whose history may still need replaying after a
	// switch reboot (failover mode only).
	retained map[core.TaskID]*sendTask
	// recoverReq, when non-zero, asks txLoop to run doRecover for that
	// recovery generation at its next safe point (set synchronously by
	// observeEpoch; recovery runs inline so no concurrent send can race it).
	recoverReq   uint32
	recoveredGen uint32
	// regEpoch is the epoch of the switch incarnation this channel's flow is
	// currently registered on (0 = unregistered, e.g. flow table full after a
	// reboot). Maintained by the registration RPCs, which return the live
	// incarnation's epoch; recorded per packet in sendTask.history.
	regEpoch uint32

	rx rxQueue
	// rxTask, rxEff and rxTuples carry a data packet's service from its
	// start to its merge (serveInbound); rxMerge says whether the packet was
	// fresh.
	rxTask   *recvTask
	rxEff    wire.Bitmap
	rxTuples int
	rxMerge  bool

	// tx is the send chain of the task txLoop serves.
	tx txChain

	txThread *cpumodel.Thread
	rxThread *cpumodel.Thread
}

// txChain is the per-packet part of txLoop for one task: the pacing stall,
// the PacketIOCost charge, the TX-ring throttle and the wait for window
// space, run as a chain of events while txLoop is parked. Each wait is
// scheduled where the process would have scheduled its own wake-up, so the
// chain's events are the process's, in the same order; only the switches
// go. The chain hands control back to txLoop (resume) at stream end, at a
// transport abort and when a failover recovery is pending.
type txChain struct {
	task    *sendTask
	pace    pacer
	pz      *packetizer
	stage   txStage
	pkt     *wire.Packet
	tuples  int
	stalled bool // pkt waited for window space (SendFunc's trace state)
	ended   bool // the stream is done: every packet sent, or the window aborted
	// stepFn is ch.txStep and resume txLoop's Resumer, both bound once.
	stepFn, resume func()
}

// txStage is the step of the send chain a packet is at.
type txStage uint8

const (
	txNext     txStage = iota // packetize, stall until a tuple is due, charge PacketIOCost
	txThrottle                // wait for the TX ring to drain below its bound
	txSend                    // hand the packet to the window, waiting for space
)

func newDataChannel(d *Daemon, flow core.FlowKey) *dataChannel {
	ch := &dataChannel{
		d:        d,
		flow:     flow,
		uplink:   d.net.Uplink(d.host),
		queueSig: sim.NewSignal(d.sim),
		retained: make(map[core.TaskID]*sendTask),
		txThread: d.cpu.NewThread(),
		rxThread: d.cpu.NewThread(),
	}
	ch.tx.stepFn = ch.txStep
	ch.rx = rxQueue{d: d, thread: ch.rxThread, handle: ch.serveInbound}
	ch.rx.runFn = ch.rx.run
	ch.win = window.NewSender(d.sim, d.cfg.Window, core.RetransmitTimeout, ch.transmit)
	ch.win.Instrument(d.tel, flow.String())
	if d.cfg.CongestionControl {
		ch.win.EnableCongestionControl()
	}
	if d.cfg.MaxRetries > 0 {
		ch.win.SetMaxRetries(d.cfg.MaxRetries)
	}
	if d.cfg.Failover {
		ch.win.EnableBackoff()
	}
	d.sim.Spawn("tx-"+flow.String(), ch.txLoop)
	return ch
}

// transmit puts a window packet on the wire toward the current task's
// receiver (tasks are served FIFO and serialized per channel — including
// inline failover replay — so curDst is stable while any packet of a task
// is in flight).
func (ch *dataChannel) transmit(pkt *wire.Packet) {
	good := 0
	switch pkt.Type {
	case wire.TypeData:
		good = pkt.LiveTuples() * 2 * ch.d.cfg.KPartBytes
	case wire.TypeLongKey:
		for _, kv := range pkt.Long {
			good += len(kv.Key) + 8
		}
	}
	ch.d.send(ch.curDst, pkt, good, false)
}

// acked retires the window flight that seq acknowledges and releases its
// packet — the one release of everything this channel sends. The link cloned
// the packet inside each transmit, so with the flight gone nothing else points
// at it. The exception is failover: a data packet then lives on in its task's
// history for replay (txLoop), whose replays alias its slots, and is left to
// the garbage collector when the history is dropped.
func (ch *dataChannel) acked(seq uint32) {
	if pkt := ch.win.Ack(seq); pkt != nil && !(ch.d.failover && pkt.Type == wire.TypeData) {
		ch.d.pool.Release(pkt)
	}
}

// enqueue queues a task for sending.
func (ch *dataChannel) enqueue(t *sendTask) {
	ch.queue.push(t)
	ch.queueSig.Fire()
}

// maybeRecover runs the inline failover recovery if one is pending. It is
// called only from txLoop (between sends), so the window is never driven by
// two processes at once.
func (ch *dataChannel) maybeRecover(p *sim.Proc) {
	if ch.recoverReq != 0 {
		ch.doRecover(p)
	}
}

// txLoop serves queued tasks in FIFO order: packetize, window-send, FIN.
// The packets of a task go out through the send chain (txRun), which
// returns control here at stream end, at an abort, or for a recovery.
func (ch *dataChannel) txLoop(p *sim.Proc) {
	tx := &ch.tx
	tx.resume = p.Resumer()
	for {
		for ch.queue.len() == 0 {
			ch.maybeRecover(p)
			// Re-check before parking: recovery blocks, and an enqueue (or a
			// fresh recovery request) signalled during it would be lost if we
			// waited unconditionally.
			if ch.queue.len() != 0 || ch.recoverReq != 0 {
				continue
			}
			p.Wait(ch.queueSig)
		}
		ch.maybeRecover(p)
		if ch.queue.len() == 0 {
			continue
		}
		task := ch.queue.pop()
		ch.curDst = task.receiver
		if ch.d.failover {
			ch.retained[task.id] = task
		}

		// Arrival offsets anchor at this moment — the channel is the task's
		// ingress, so "stream start" is when the channel begins serving it.
		tx.task, tx.stage, tx.ended = task, txNext, false
		tx.pace = pacer{sim: ch.d.sim, ts: task.stream, start: p.Now()}
		tx.pz = newPacketizer(&ch.d.pool.Pool, ch.d.layout, tx.pace.next, tx.pace.more)
		tx.pz.part = task.part
		for {
			if !ch.txRun() {
				p.Park() // until the chain hands back
			}
			if tx.ended {
				break
			}
			ch.maybeRecover(p)
			// Recovery may have changed curDst while replaying other
			// retained tasks; restore it for this task's next packet.
			ch.curDst = task.receiver
		}
		tx.task, tx.pz, tx.pace = nil, nil, pacer{}
		if task.err == nil {
			if err := ch.win.WaitIdle(p); err != nil {
				task.err = err
			}
		}

		if task.err == nil {
			// Replay first if a reboot interleaved, so the FIN generation
			// below post-dates every replayed packet (teardown ordering).
			ch.maybeRecover(p)
			ch.curDst = task.receiver
			// FIN: stream complete and fully acknowledged (§3.1 teardown).
			if err := ch.sendFin(p, task.id); err != nil {
				task.err = err
			} else if err := ch.win.WaitIdle(p); err != nil {
				task.err = err
			}
		}
		if task.err != nil {
			// Transport abort: drop the in-flight packets and restore the
			// window so subsequent tasks on this channel still run. Sequence
			// numbers are not reused, so receiver dedup state stays valid.
			ch.win.Reset()
		}

		task.finished = true
	}
}

// txStep is the send chain's continuation event: it carries the chain on and
// resumes txLoop within the same event when the chain hands back.
func (ch *dataChannel) txStep() {
	if ch.txRun() {
		ch.tx.resume()
	}
}

// txRun runs the send chain from its current step until it waits — its
// continuation scheduled, it reports false — or hands control back to
// txLoop, reporting true. A wait whose wake-up would be the next event
// anyway is passed in place (sim.Simulation.Advance), as a process's sleep
// is; so is a packetizing step that finds nothing to wait for.
func (ch *dataChannel) txRun() bool {
	tx, s := &ch.tx, ch.d.sim
	for {
		switch tx.stage {
		case txNext:
			pkt, tuples, ok := tx.pz.next()
			if !ok {
				if tx.pz.eof {
					tx.ended = true
					return true
				}
				// No tuple is due yet and nothing is buffered: the pacing
				// stall, until the next arrival.
				if at := tx.pace.dueAt(); !s.Advance(at) {
					s.At(at, tx.stepFn)
					return false
				}
				continue
			}
			// PacketIOCost covers the whole per-packet lifecycle on the
			// channel thread — shared-memory read, slot marshalling
			// (SIMD-copied in batches on real DPDK), descriptor work, and
			// ACK bookkeeping — keeping the calibrated 9.35 Mpps per
			// channel independent of tuples per packet (Fig. 8(a)'s
			// PPS-bound linear region).
			tx.pkt, tx.tuples, tx.stage = pkt, tuples, txThrottle
			if !ch.txThread.Charge(cpumodel.PacketIOCost, tx.stepFn) {
				return false
			}
			fallthrough
		case txThrottle:
			// Bounded TX ring: never queue more wire time at the NIC than
			// a fraction of the retransmission timeout, or acknowledgments
			// cannot outrun spurious timeouts.
			tx.stage = txSend
			if at := ch.uplink.ThrottleUntil(core.RetransmitTimeout / 4); !s.Advance(at) {
				s.At(at, tx.stepFn)
				return false
			}
			fallthrough
		case txSend:
			pkt := tx.pkt
			if !tx.stalled { // the first attempt: stamp and count the packet
				pkt.Task = tx.task.id
				pkt.Flow = ch.flow
				ch.d.met.packetsSent.Inc()
				ch.d.met.tuplesSent.Add(int64(tx.tuples))
				ch.d.met.batchTuples.Record(int64(tx.tuples))
				if pkt.Type == wire.TypeLongKey {
					ch.d.met.longTuplesSent.Add(int64(tx.tuples))
				} else {
					ch.d.slotFillCounter(pkt.Bitmap.Count()).Inc()
				}
			}
			done, err := ch.win.SendFunc(pkt, &tx.stalled, tx.stepFn)
			if !done {
				return false
			}
			tx.pkt, tx.stalled, tx.stage = nil, false, txNext
			if err != nil {
				tx.task.err, tx.ended = err, true
				return true
			}
			if ch.d.failover && pkt.Type == wire.TypeData {
				// The sender-side packet struct is never mutated by the
				// network (frames clone at delivery), so the original slots
				// and liveness bitmap are intact for replay. regEpoch tags
				// the incarnation whose reliability state covered the first
				// transmission (see historyRec).
				tx.task.history = append(tx.task.history, historyRec{pkt, ch.regEpoch})
			}
			if ch.recoverReq != 0 {
				return true
			}
		}
	}
}

// doRecover replays this channel's retained history after a switch reboot
// (failover §recovery): drain the window, re-register the flow at its
// current sequence position, then resend every retained task's data packets
// as TypeReplay (host-only bypass) and re-FIN finished tasks. Runs inline on
// txLoop so it is the only driver of the window.
func (ch *dataChannel) doRecover(p *sim.Proc) {
	for ch.recoverReq != 0 {
		gen := ch.recoverReq
		ch.recoverReq = 0
		// Drain in-flight packets of the old epoch first: they keep
		// retransmitting and, with the flow unregistered on the rebooted
		// switch, stream through whole to the receiver, which merges and
		// ACKs them. Re-registering before they drain would misclassify
		// them against fresh reliability state.
		if err := ch.win.WaitIdle(p); err != nil {
			ch.win.Reset()
		}
		if gen != ch.d.recoveryGen {
			ch.recoverReq = ch.d.recoveryGen
			continue
		}
		p.Sleep(cpumodel.ControlRPCLatency)
		if ep, err := ch.d.ctrl.RegisterFlowAt(ch.flow, ch.win.NextSeq()); err != nil {
			// Flow table full on the rebooted switch: stay unregistered.
			// Packets forward host-only; correctness is unaffected.
			ch.regEpoch = 0
		} else {
			ch.regEpoch = ep
			// The RPC may have landed on an incarnation NEWER than the one
			// this recovery generation was triggered by (the switch rebooted
			// again before the daemon noticed). Feed the epoch back so the
			// daemon schedules the follow-up recovery now instead of waiting
			// for a stamped packet.
			ch.d.observeEpoch(ep)
		}
		saved := ch.curDst
		for _, id := range slices.Sorted(maps.Keys(ch.retained)) {
			t := ch.retained[id]
			ch.curDst = t.receiver
			for _, rec := range t.history {
				if rec.absorbEpoch != 0 && rec.absorbEpoch == ch.regEpoch {
					// First transmitted while the flow was registered on the
					// incarnation we just re-registered on: the switch state
					// that absorbed it did not die. Its absorbed tuples are
					// still in the live region (fetched at teardown) and its
					// residue was claimed at the receiver — replaying here
					// would double-count.
					continue
				}
				orig := rec.pkt
				ch.txThread.Run(p, cpumodel.PacketIOCost)
				// The replay aliases the retained packet's slot array: Slots a
				// caller installs are never the pool's to recycle, so releasing
				// the acknowledged replay leaves the history intact.
				rp := ch.d.pool.NewPacket()
				rp.Type, rp.Task, rp.Flow = wire.TypeReplay, t.id, ch.flow
				rp.OrigSeq, rp.Bitmap, rp.Slots = orig.Seq, orig.Bitmap, orig.Slots
				if err := ch.win.SendBlocking(p, rp); err != nil {
					break
				}
				ch.d.met.replaysSent.Inc()
			}
			if t.finished && t.err == nil {
				// Re-FIN after the replays are acknowledged so the receiver
				// processes the new-generation FIN last.
				if err := ch.win.WaitIdle(p); err == nil {
					_ = ch.sendFin(p, t.id)
				}
			}
			if err := ch.win.WaitIdle(p); err != nil {
				ch.win.Reset()
			}
		}
		ch.curDst = saved
		ch.d.channelRecovered(ch, gen)
	}
}

// sendFin cuts a task's FIN and window-sends it. OrigSeq carries the FIN
// generation — the epoch the sender had observed when it cut the FIN.
func (ch *dataChannel) sendFin(p *sim.Proc, task core.TaskID) error {
	fin := ch.d.pool.NewPacket()
	fin.Type, fin.Task, fin.Flow, fin.OrigSeq = wire.TypeFin, task, ch.flow, ch.d.epoch
	ch.txThread.Run(p, cpumodel.PacketIOCost)
	return ch.win.SendBlocking(p, fin)
}

// rxQueue is a channel's inbound queue, data or control: HandleFrame pushes
// at arrival, and the queue serves in arrival order, one packet at a time, as
// a chain of events over the channel's thread (run). The queue holds no
// packet: push copies out what the handlers read and releases the frame,
// packet included, so a receiver that falls behind keeps a backlog of queue
// entries while the frames and packets go back to the free lists the moment
// they arrive. The handlers read each entry where push stored it.
type rxQueue struct {
	d      *Daemon
	thread *cpumodel.Thread
	// handle serves the head entry, with its runs in the slot and long-key
	// stores, from the given step (0 for a new packet) up to its next wait,
	// which it returns; it must keep no reference into the entry or its runs.
	handle func(it *rxItem, slots []wire.Slot, long []wire.LongKV, step int) rxWait
	items  fifo[rxItem]
	// slots holds each queued data or replay packet's live slot groups as
	// one run, in Daemon.residue's order, and long each long-key packet's
	// tuples.
	slots fifo[wire.Slot]
	long  fifo[wire.LongKV]
	// busy is set from the push that finds the queue idle until run finds it
	// empty; step is the served packet's next step, 0 between packets.
	busy bool
	step int
	// runFn is r.run, bound once.
	runFn func()
}

// rxWait is what a packet's service waits for before its next step: a CPU
// charge on the queue's thread or a plain delay. The zero value ends the
// packet's service.
type rxWait struct{ charge, delay time.Duration }

// rxItem is a queued packet's header: what the handlers read, besides the
// runs in the slot and long-key stores.
type rxItem struct {
	typ          wire.Type
	task         core.TaskID
	flow         core.FlowKey
	seq, origSeq uint32
	bitmap       wire.Bitmap
	width        int32 // len(Slots) of the arrived packet
	slots, long  int32 // run lengths in the slot and long-key stores
	ctrl         any
}

// push queues what the handlers read of a delivered frame's packet and
// releases the frame. Of a data or replay packet it keeps every slot group
// live in the packet's bitmap — the effective bitmap a handler merges is a
// subset of it, failover's claimBits included. A frame that does not own
// its packet (built by hand, never through a link) leaves the packet with
// its builder, as Frame.Release does. An idle queue starts serving at this
// instant: the wake-up a receive process waiting for the arrival would have
// had, an event of its own scheduled here, or — when that event would be the
// next one popped (sim.Simulation.InPlace) — this one. Either way push must be
// the last code of its event: both callers in HandleFrame end with it, and
// the link's delivery does nothing after HandleFrame returns.
func (r *rxQueue) push(f *netsim.Frame) {
	pkt := f.Pkt
	it := rxItem{
		typ: pkt.Type, task: pkt.Task, flow: pkt.Flow, seq: pkt.Seq, origSeq: pkt.OrigSeq,
		bitmap: pkt.Bitmap, width: int32(len(pkt.Slots)), long: int32(len(pkt.Long)), ctrl: pkt.Ctrl,
	}
	if pkt.Type == wire.TypeData || pkt.Type == wire.TypeReplay {
		short, medium := r.d.groupStarts(len(pkt.Slots))
		n := bits.OnesCount64(uint64(pkt.Bitmap&short)) + r.d.cfg.MediumSegs*bits.OnesCount64(uint64(pkt.Bitmap&medium))
		it.slots = int32(n)
	}
	if it.slots > 0 {
		r.d.moveGroups(r.slots.reserve(int(it.slots)), pkt.Slots, pkt.Bitmap)
	}
	if it.long > 0 {
		copy(r.long.reserve(int(it.long)), pkt.Long)
	}
	r.items.push(it)
	f.Release()
	if !r.busy {
		r.busy = true
		if s := r.d.sim; s.InPlace() {
			r.run()
		} else {
			s.At(s.Now(), r.runFn)
		}
	}
}

// run serves queued packets until the queue is empty or a packet waits; the
// wait's completion event runs it again. A loop, not a recursion, however
// long the backlog: a wait whose wake-up would be the next event anyway is
// passed in place (sim.Simulation.Advance), and the next packet starts in the
// event that ends the last. An entry and its runs leave the queue only when
// its service ends: a push during one of its waits reserves behind them.
func (r *rxQueue) run() {
	s := r.d.sim
	for {
		if r.items.len() == 0 {
			r.busy = false
			return
		}
		it := &r.items.peek(1)[0]
		w := r.handle(it, r.slots.peek(int(it.slots)), r.long.peek(int(it.long)), r.step)
		r.step++
		switch {
		case w.charge > 0:
			if !r.thread.Charge(w.charge, r.runFn) {
				return
			}
		case w.delay > 0:
			if at := s.Now().Add(w.delay); !s.Advance(at) {
				s.At(at, r.runFn)
				return
			}
		default:
			r.step = 0
			if it.slots > 0 {
				r.slots.take(int(it.slots))
			}
			if it.long > 0 {
				clear(r.long.take(int(it.long))) // a kept block pins no key
			}
			r.items.pop() // zeroes the entry: an idle queue pins no control body
		}
	}
}

// moveGroups packs the slot groups b selects out of a packet's slot array
// into run, back to back in Daemon.residue's order.
func (d *Daemon) moveGroups(run, slots []wire.Slot, b wire.Bitmap) {
	short, medium := d.groupStarts(len(slots))
	n := 0
	for s := b & short; s != 0; s &= s - 1 {
		run[n] = slots[bits.TrailingZeros64(uint64(s))]
		n++
	}
	m := d.cfg.MediumSegs
	for s := b & medium; s != 0; s &= s - 1 {
		n += copy(run[n:], slots[bits.TrailingZeros64(uint64(s)):][:m])
	}
}
