package switchd

import (
	"repro/internal/netsim"
	"repro/internal/window"
	"repro/internal/wire"
)

// processFetch serves the receiver's read of one shadow copy of a task's
// region (§3.4 Read(), and task teardown §3.1 step ⑨).
//
// The protocol is two-phase so retransmissions stay safe on the unreliable
// network: a Fetch with FetchClear=false is an idempotent snapshot read —
// the switch streams the copy's non-blank aggregators back in chunked
// FetchReply packets echoing the request id (Seq). Once the receiver has
// every chunk it issues a Fetch with FetchClear=true, which zeroes the copy
// and is acknowledged; clearing is idempotent because by protocol the copy
// is quiescent (after a swap, data packets write only the other copy; at
// teardown, all senders have FINished).
func (sw *Switch) processFetch(f *netsim.Frame) {
	pkt := f.Pkt
	region := sw.regions[pkt.Task]
	if region == nil {
		// Unknown task (e.g. already freed): acknowledge clears so the
		// receiver does not retry forever; reads return an empty snapshot.
		if pkt.FetchClear {
			sw.reply(f, f.Src, sw.pool.NewAck(pkt))
		} else {
			sw.sendFetchReplies(f, pkt, nil)
		}
		return
	}
	copyIdx := pkt.FetchCopy
	if copyIdx < 0 || copyIdx >= region.Copies {
		copyIdx = 0
	}
	lo := region.Lo + copyIdx*region.CopyRows
	hi := lo + region.CopyRows

	if pkt.FetchClear {
		// Exactly-once clearing: a duplicated or long-delayed clear packet
		// must not wipe a copy that has since been swapped back into
		// service. Request ids are strictly increasing per daemon, so a
		// clear applies only when its id is fresher than the last applied
		// one (mirrors the swap_seq mechanism of §3.4).
		ps := sw.pipe.Begin()
		fresh := sw.raClearSeq.RMW(ps, region.idx, func(cur uint64) (uint64, uint64) {
			if cur == 0 || window.SeqLess(uint32(cur), pkt.Seq) {
				return uint64(pkt.Seq), 1
			}
			return cur, 0
		}) == 1
		if fresh {
			sw.met.clears.Inc()
			sw.clearAARange(lo, hi)
		}
		sw.reply(f, f.Src, sw.pool.NewAck(pkt))
		return
	}

	sw.met.fetches.Inc()
	n := uint(8 * sw.cfg.KPartBytes)
	entries := sw.fetchBuf[:0]
	for ai, aa := range sw.raAAs {
		for row := lo; row < hi; row++ {
			cur := aa.ControlRead(row)
			kp := cur >> n
			if kp == 0 {
				continue
			}
			entries = append(entries, wire.FetchEntry{
				AA:    ai,
				Row:   row - lo, // copy-relative, stable across copies
				KPart: kp << (64 - n),
				Val:   sw.decodeVal(cur & sw.nMask()),
			})
		}
	}
	sw.sendFetchReplies(f, pkt, entries)
	sw.fetchBuf = entries[:0]
}

// sendFetchReplies streams the snapshot back in MTU-sized chunks. An empty
// snapshot still produces one (empty) reply so the receiver can finish.
func (sw *Switch) sendFetchReplies(f *netsim.Frame, req *wire.Packet, entries []wire.FetchEntry) {
	chunks := max(1, (len(entries)+wire.MaxFetchEntriesPerReply-1)/wire.MaxFetchEntriesPerReply)
	for c := 0; c < chunks; c++ {
		lo := c * wire.MaxFetchEntriesPerReply
		hi := min(lo+wire.MaxFetchEntriesPerReply, len(entries))
		sw.reply(f, f.Src, sw.pool.NewFetchReply(req, c, chunks, entries[lo:hi]))
	}
}
