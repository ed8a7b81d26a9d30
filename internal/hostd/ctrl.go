package hostd

import (
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/keyspace"
	"repro/internal/sim"
	"repro/internal/window"
	"repro/internal/wire"
)

// ctrlMsg wraps a control-channel message with its destination so the
// window's transmit callback can route (a control channel fans out to many
// hosts, unlike a data channel serving one task at a time).
type ctrlMsg struct {
	Dst  core.HostID
	Body any
}

// taskNotify announces a new aggregation task to a sender daemon (§3.1
// step ④): task ID, receiver address, and application context. Partition
// is the task's keyspace band (zero = whole keyspace) — senders must pack
// only keys the task's switch region actually aggregates.
type taskNotify struct {
	Task      core.TaskID
	Receiver  core.HostID
	Op        core.Op
	Partition keyspace.Partition
}

// taskRelease tells a sender daemon that the receiver's result for a task is
// final, so the sender may drop its retained failover replay history.
type taskRelease struct {
	Task core.TaskID
}

// ctrlChannel is the daemon's persistent control channel: one dedicated
// thread, reliable delivery via the same sliding-window machinery as data.
type ctrlChannel struct {
	d    *Daemon
	flow core.FlowKey
	win  *window.Sender
	rx   rxQueue
	// fresh carries the served message's verdict across its CPU charge.
	fresh bool
}

// ctrlWindow is the control channel's (small) sliding window.
const ctrlWindow = 64

func newCtrlChannel(d *Daemon) *ctrlChannel {
	ch := &ctrlChannel{
		d:    d,
		flow: core.FlowKey{Host: d.host, Channel: core.ChannelID(d.cfg.DataChannels)},
	}
	// Control messages are far larger-timeout than data: they cross the
	// switch twice and are not latency critical.
	ch.win = window.NewSender(d.sim, ctrlWindow, 10*core.RetransmitTimeout, ch.transmit)
	ch.win.Instrument(d.tel, ch.flow.String())
	ch.rx = rxQueue{d: d, thread: d.cpu.NewThread(), handle: ch.process}
	ch.rx.runFn = ch.rx.run
	return ch
}

func (ch *ctrlChannel) transmit(pkt *wire.Packet) {
	msg := pkt.Ctrl.(ctrlMsg)
	ch.d.send(msg.Dst, pkt, 0, false)
}

// send reliably delivers a control message (blocks for window space).
func (ch *ctrlChannel) send(p *sim.Proc, dst core.HostID, body any) {
	pkt := &wire.Packet{Type: wire.TypeCtrl, Flow: ch.flow, Ctrl: ctrlMsg{Dst: dst, Body: body}}
	ch.win.SendBlocking(p, pkt)
}

// process serves one control message, the receive queue's head entry, in
// three steps: classify it and charge its PacketIOCost; apply a fresh one and
// let a small queueing delay stand in for the local message queue to the
// application (§3.1 step ⑤); acknowledge it.
func (ch *ctrlChannel) process(it *rxItem, _ []wire.Slot, _ []wire.LongKV, step int) rxWait {
	switch step {
	case 0:
		verdict := ch.d.dedupFor(it.flow).Observe(it.seq)
		if verdict == window.Stale {
			return rxWait{}
		}
		ch.fresh = verdict == window.Fresh
		return rxWait{charge: cpumodel.PacketIOCost}
	case 1:
		if ch.fresh {
			msg := it.ctrl.(ctrlMsg)
			switch body := msg.Body.(type) {
			case taskNotify:
				ch.d.onNotify(body)
			case taskRelease:
				ch.d.onRelease(body.Task)
			default:
				// Unknown control bodies are ignored (forward compatibility).
			}
			return rxWait{delay: time.Microsecond}
		}
	}
	ch.d.send(it.flow.Host, wire.NewAck(&wire.Packet{Type: it.typ, Task: it.task, Flow: it.flow, Seq: it.seq}), 0, true)
	return rxWait{}
}
