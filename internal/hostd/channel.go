package hostd

import (
	"sort"

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
	part     keyspace.Partition
	done     *sim.Signal
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

// SendHandle lets the sending application wait for its stream to be fully
// aggregated and acknowledged (data + FIN).
type SendHandle struct{ t *sendTask }

// Wait blocks until the task's FIN is acknowledged (or the transport
// aborts; check Err).
func (h *SendHandle) Wait(p *sim.Proc) {
	for !h.t.finished {
		p.Wait(h.t.done)
	}
}

// Done reports whether the stream completed (successfully or not).
func (h *SendHandle) Done() bool { return h.t.finished }

// Err returns the transport abort error, or nil if the stream was fully
// delivered.
func (h *SendHandle) Err() error { return h.t.err }

// dataChannel is one duplex persistent channel: a send loop draining queued
// tasks through the sliding window, and a receive loop processing inbound
// flow packets, each charged to the channel's CPU thread.
type dataChannel struct {
	d    *Daemon
	flow core.FlowKey
	win  *window.Sender

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

	txThread *cpumodel.Thread
	rxThread *cpumodel.Thread
}

func newDataChannel(d *Daemon, flow core.FlowKey) *dataChannel {
	ch := &dataChannel{
		d:        d,
		flow:     flow,
		queueSig: sim.NewSignal(d.sim),
		rx:       rxQueue{sig: sim.NewSignal(d.sim)},
		retained: make(map[core.TaskID]*sendTask),
		txThread: d.cpu.NewThread(),
		rxThread: d.cpu.NewThread(),
	}
	ch.win = window.NewSender(d.sim, d.cfg.Window, d.cfg.RetransmitTimeout, ch.transmit)
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
	// processInbound copies everything it keeps (residue bitmaps are decoded
	// into fresh storage, long-key strings are immutable), so serve may
	// recycle each frame after it.
	d.sim.Spawn("rx-"+flow.String(), func(p *sim.Proc) {
		ch.rx.serve(p, func(f *netsim.Frame) { d.processInbound(p, ch, f) })
	})
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
		pkt.Release()
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
func (ch *dataChannel) txLoop(p *sim.Proc) {
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
		stream, stall := paceStream(p, task.stream)
		pz := newPacketizer(ch.d.layout, stream, stall)
		pz.part = task.part
		for {
			pkt, tuples, ok := pz.next()
			if !ok {
				break
			}
			// PacketIOCost covers the whole per-packet lifecycle on the
			// channel thread — shared-memory read, slot marshalling
			// (SIMD-copied in batches on real DPDK), descriptor work, and
			// ACK bookkeeping — keeping the calibrated 9.35 Mpps per
			// channel independent of tuples per packet (Fig. 8(a)'s
			// PPS-bound linear region).
			ch.txThread.Run(p, cpumodel.PacketIOCost)
			// Bounded TX ring: never queue more wire time at the NIC than
			// a fraction of the retransmission timeout, or acknowledgments
			// cannot outrun spurious timeouts.
			ch.d.net.Uplink(ch.d.host).Throttle(p, ch.d.cfg.RetransmitTimeout/4)
			pkt.Task = task.id
			pkt.Flow = ch.flow
			ch.d.met.packetsSent.Inc()
			ch.d.met.tuplesSent.Add(int64(tuples))
			ch.d.met.batchTuples.Record(int64(tuples))
			if pkt.Type == wire.TypeLongKey {
				ch.d.met.longTuplesSent.Add(int64(tuples))
			} else {
				ch.d.slotFillCounter(pkt.Bitmap.Count()).Inc()
			}
			if err := ch.win.SendBlocking(p, pkt); err != nil {
				task.err = err
				break
			}
			if ch.d.failover && pkt.Type == wire.TypeData {
				// The sender-side packet struct is never mutated by the
				// network (frames clone at delivery), so the original slots
				// and liveness bitmap are intact for replay. regEpoch tags
				// the incarnation whose reliability state covered the first
				// transmission (see historyRec).
				task.history = append(task.history, historyRec{pkt, ch.regEpoch})
			}
			ch.maybeRecover(p)
			// Recovery may have changed curDst while replaying other
			// retained tasks; restore it for this task's next packet.
			ch.curDst = task.receiver
		}
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
		task.done.Fire()
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
		ids := make([]core.TaskID, 0, len(ch.retained))
		for id := range ch.retained {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
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
				rp := wire.NewPacket()
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
	fin := wire.NewPacket()
	fin.Type, fin.Task, fin.Flow, fin.OrigSeq = wire.TypeFin, task, ch.flow, ch.d.epoch
	ch.txThread.Run(p, cpumodel.PacketIOCost)
	return ch.win.SendBlocking(p, fin)
}

// rxQueue is a channel's inbound frame queue, data or control: HandleFrame
// pushes at arrival, the channel's rx process serves in arrival order.
type rxQueue struct {
	q   fifo[*netsim.Frame]
	sig *sim.Signal
}

func (r *rxQueue) push(f *netsim.Frame) {
	r.q.push(f)
	r.sig.Fire()
}

// serve handles queued frames forever on the calling process, releasing
// each frame once handle returns: handle must keep no reference into it.
func (r *rxQueue) serve(p *sim.Proc, handle func(*netsim.Frame)) {
	for {
		for r.q.len() == 0 {
			p.Wait(r.sig)
		}
		f := r.q.pop()
		handle(f)
		f.Release()
	}
}
