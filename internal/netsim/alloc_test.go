//go:build !race

package netsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// TestHopAllocatesNothing pins the fabric's share of the per-packet path: a
// free-list frame from a host through the forwarding switch toward host 2 —
// uplink with its switch hop, downlink — allocates nothing in steady state,
// whichever way it ends. Delivered: the sender relinquishes the packet
// (ownership transfer end to end) or retains it (one pooled clone at the first
// link, handed through after that). Dropped, where the link or the routing
// table is the last holder and its Release is what refills the free lists: a
// lossy uplink, a black-holed one, a destination nobody attached, and — on a
// fat-tree, leaf 0 → spine → leaf 1 — a crashed destination leaf. Duplicated:
// both deliveries are clones, and the link releases the original.
func TestHopAllocatesNothing(t *testing.T) {
	s, n, _ := testNet(1, DefaultLinkConfig())
	h := &releasingHost{}
	for id := core.HostID(1); id <= 5; id++ {
		n.AttachHost(id, h)
	}
	n.Uplink(3).SetFault(Fault{LossProb: 1})
	n.Uplink(4).SetBlackhole(true)
	n.Uplink(5).SetFault(Fault{DupProb: 1})
	treeSim, tree, treeHosts := buildFatTree(t, 1, 2, 1) // host 0 on leaf 0, host 1 on leaf 1
	tree.SetLeafDown(1, true)
	rack := func(f *Frame) { n.HostSend(f); s.Run(0) }
	retained := &wire.Packet{Type: wire.TypeData, Slots: make([]wire.Slot, 32)}
	rows := []struct {
		name      string
		send      func(*Frame) // sends the frame and runs its fabric dry
		pool      *Pool        // the free lists of that fabric's run
		src, dst  core.HostID
		owned     bool
		delivered int
	}{
		{"owned", rack, PoolOf(s), 1, 2, true, 1},
		{"cloned", rack, PoolOf(s), 1, 2, false, 1},
		{"lost", rack, PoolOf(s), 3, 2, true, 0},
		{"black-holed", rack, PoolOf(s), 4, 2, true, 0},
		{"duplicated", rack, PoolOf(s), 5, 2, true, 2},
		{"unroutable", rack, PoolOf(s), 1, 99, true, 0},
		{"crashed-leaf", func(f *Frame) { tree.HostSend(f); treeSim.Run(0) }, PoolOf(treeSim), 0, 1, true, 0},
	}
	const warm, runs = 100, 200
	want := 0
	for _, row := range rows {
		hop := func() {
			f := row.pool.NewFrame()
			f.Src, f.Dst, f.Pkt, f.Owned = row.src, row.dst, retained, row.owned
			if row.owned {
				f.Pkt = row.pool.NewData(32)
			}
			f.WireBytes = f.Pkt.WireBytes(4)
			row.send(f)
		}
		for i := 0; i < warm; i++ {
			hop()
		}
		if a := testing.AllocsPerRun(runs, hop); a != 0 {
			t.Errorf("%s hop allocates %v objects per frame, want 0", row.name, a)
		}
		want += row.delivered * (warm + runs + 1) // AllocsPerRun adds one warm-up run
	}
	if h.got != want {
		t.Errorf("delivered %d frames, want %d", h.got, want)
	}
	if got := n.Unroutable(); got != warm+runs+1 {
		t.Errorf("%d routing misses, want %d", got, warm+runs+1)
	}
	if up, got := tree.SpineUplink(0, 0).Stats().TxFrames, len(treeHosts[1].got); up != warm+runs+1 || got != 0 {
		t.Errorf("%d frames left leaf 0 for the crashed leaf (want %d), %d were delivered (want 0)", up, warm+runs+1, got)
	}
	if retained.Type != wire.TypeData || len(retained.Slots) != 32 {
		t.Errorf("the sender's retained packet was recycled: %+v", retained)
	}
}
