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
	d      *Daemon
	flow   core.FlowKey
	win    *window.Sender
	rx     rxQueue
	thread *cpumodel.Thread
}

// ctrlWindow is the control channel's (small) sliding window.
const ctrlWindow = 64

func newCtrlChannel(d *Daemon) *ctrlChannel {
	ch := &ctrlChannel{
		d:      d,
		flow:   core.FlowKey{Host: d.host, Channel: core.ChannelID(d.cfg.DataChannels)},
		rx:     newRxQueue(d),
		thread: d.cpu.NewThread(),
	}
	// Control messages are far larger-timeout than data: they cross the
	// switch twice and are not latency critical.
	ch.win = window.NewSender(d.sim, ctrlWindow, 10*core.RetransmitTimeout, ch.transmit)
	ch.win.Instrument(d.tel, ch.flow.String())
	// process retains nothing from the packet (ctrl bodies are plain values
	// and the ack is a fresh packet), so serve may reuse its view packet.
	d.sim.Spawn("ctrl-"+ch.flow.String(), func(p *sim.Proc) {
		ch.rx.serve(p, func(pkt *wire.Packet) { ch.process(p, pkt) })
	})
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

func (ch *ctrlChannel) process(p *sim.Proc, pkt *wire.Packet) {
	verdict := ch.d.dedupFor(pkt.Flow).Observe(pkt.Seq)
	if verdict == window.Stale {
		return
	}
	ch.thread.Run(p, cpumodel.PacketIOCost)
	if verdict == window.Fresh {
		msg := pkt.Ctrl.(ctrlMsg)
		switch body := msg.Body.(type) {
		case taskNotify:
			ch.d.onNotify(body)
		case taskRelease:
			ch.d.onRelease(body.Task)
		default:
			// Unknown control bodies are ignored (forward compatibility).
		}
		// A small queueing delay stands in for the local message queue to
		// the application (§3.1 step ⑤).
		p.Sleep(time.Microsecond)
	}
	ch.d.send(pkt.Flow.Host, wire.NewAck(pkt), 0, true)
}
