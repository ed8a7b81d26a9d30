package netsim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

type nullHost struct{}

func (nullHost) HandleFrame(f *Frame) {}

// checkLayout verifies the invariants every sharded layout must satisfy:
// lanes cover [0, lanes), block assignment is contiguous and every lane
// owns at least one block.
func checkLayout(t *testing.T, lanes int, blockLane, spineLane []int) {
	t.Helper()
	used := make([]bool, lanes)
	prev := 0
	for i, lane := range blockLane {
		if lane < 0 || lane >= lanes {
			t.Fatalf("block %d on lane %d, want [0,%d)", i, lane, lanes)
		}
		if lane < prev {
			t.Fatalf("block lanes not contiguous: %v", blockLane)
		}
		prev = lane
		used[lane] = true
	}
	for lane, u := range used {
		if !u {
			t.Fatalf("lane %d owns no blocks: %v", lane, blockLane)
		}
	}
	for _, lane := range spineLane {
		if lane < 0 || lane >= lanes {
			t.Fatalf("spine lane %d out of range [0,%d)", lane, lanes)
		}
	}
}

func TestEffectiveShards(t *testing.T) {
	cases := []struct{ req, blocks, want int }{
		{0, 4, 0}, {1, 4, 0}, {2, 4, 2}, {4, 4, 4},
		{8, 4, 4}, {4, 1, 0}, {2, 1, 0}, {3, 8, 3}, {1, 1, 0},
	}
	for _, c := range cases {
		if got := EffectiveShards(c.req, c.blocks); got != c.want {
			t.Errorf("EffectiveShards(%d, %d) = %d, want %d", c.req, c.blocks, got, c.want)
		}
	}
}

func TestFatTreePartition(t *testing.T) {
	cases := []struct {
		name           string
		spines, leaves int
		req, wantLanes int
	}{
		{"serial-1shard", 2, 4, 1, 0},
		{"serial-1leaf", 2, 1, 8, 0},
		{"degenerate-1spine-2leaves", 1, 2, 2, 2},
		{"2of4", 2, 4, 2, 2},
		{"4of4", 2, 4, 4, 4},
		{"clamp8to4", 2, 4, 8, 4},
		{"3of8-3spines", 3, 8, 4, 4},
		// One spine over R leaves is the multi-rack shape (racks under a
		// forwarding core): the same partitioner, one up and one down cut per
		// rack.
		{"core-serial-1shard", 1, 4, 1, 0},
		{"core-serial-1rack", 1, 1, 8, 0},
		{"core-2of4", 1, 4, 2, 2},
		{"core-4of4", 1, 4, 4, 4},
		{"core-clamp8to4", 1, 4, 8, 4},
		{"core-3of8", 1, 8, 3, 3},
		{"core-2of5", 1, 5, 2, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := sim.New(1)
			hostLink := DefaultLinkConfig()
			fabricLink := LinkConfig{BandwidthBps: 400e9, Propagation: 2 * time.Microsecond}
			ft, g := NewFatTreeSharded(root, c.spines, c.leaves, c.req, hostLink, fabricLink)
			for l := 0; l < c.leaves; l++ {
				ft.AttachHostLeaf(l, core.HostID(2*l), nullHost{})
				ft.AttachHostLeaf(l, core.HostID(2*l+1), nullHost{})
			}
			if c.wantLanes == 0 {
				if g != nil || ft.Group() != nil {
					t.Fatalf("expected serial build, got group %v", g)
				}
				// Serial seam: every link lives on the root simulation with no
				// mailbox rewiring.
				for id, p := range ft.hostPorts {
					if p == nil {
						continue
					}
					if p.up.sim != root || p.down.sim != root || p.up.xroute != nil || p.down.xroute != nil {
						t.Fatalf("serial host %d link rewired", id)
					}
				}
				for l := 0; l < c.leaves; l++ {
					if ft.LeafSim(l) != root {
						t.Fatalf("serial leaf %d not on root sim", l)
					}
					for _, lk := range ft.leaves[l].up {
						if lk.sim != root || lk.xroute != nil {
							t.Fatalf("serial leaf %d uplink rewired", l)
						}
					}
				}
				for s := 0; s < c.spines; s++ {
					if ft.SpineSim(s) != root {
						t.Fatalf("serial spine %d not on root sim", s)
					}
					for _, lk := range ft.spines[s].down {
						if lk.sim != root || lk.xroute != nil {
							t.Fatalf("serial spine %d downlink rewired", s)
						}
					}
				}
				return
			}
			if g == nil || g.Lanes() != c.wantLanes {
				t.Fatalf("got group %v, want %d lanes", g, c.wantLanes)
			}
			blockLane := make([]int, c.leaves)
			for l, lp := range ft.leaves {
				blockLane[l] = lp.ls.ShardLane()
			}
			spineLane := make([]int, c.spines)
			for s, spp := range ft.spines {
				spineLane[s] = spp.ls.ShardLane()
			}
			checkLayout(t, g.Lanes(), blockLane, spineLane)
			if want := fabricLink.Propagation + defaultSwitchLatency; g.Lookahead() != want {
				t.Fatalf("lookahead = %v, want %v", g.Lookahead(), want)
			}
			for s := 0; s < c.spines; s++ {
				if want := s % c.wantLanes; spineLane[s] != want {
					t.Fatalf("spine %d on lane %d, want %d", s, spineLane[s], want)
				}
			}
			// The whole bipartite mesh is cut: every leaf uplink and spine
			// downlink below is a cross-lane mailbox.
			for l := 0; l < c.leaves; l++ {
				lp := ft.leaves[l]
				lane := g.Lane(blockLane[l])
				if lp.ls != lane || ft.LeafSim(l) != lane {
					t.Fatalf("leaf %d state not on its lane", l)
				}
				for s, lk := range lp.up {
					if lk.sim != lane || lk.xroute == nil || lk.xdelay != defaultSwitchLatency {
						t.Fatalf("leaf %d uplink %d not a cut on its lane", l, s)
					}
					if got := lk.xroute(nil); got != ft.spines[s].ls {
						t.Fatalf("leaf %d uplink %d routes to wrong lane", l, s)
					}
				}
			}
			for s := 0; s < c.spines; s++ {
				spp := ft.spines[s]
				lane := g.Lane(spineLane[s])
				if spp.ls != lane || ft.SpineSim(s) != lane {
					t.Fatalf("spine %d state not on its lane", s)
				}
				for l, lk := range spp.down {
					if lk.sim != lane || lk.xroute == nil || lk.xdelay != defaultSwitchLatency {
						t.Fatalf("spine %d downlink %d not a cut on its lane", s, l)
					}
					if got := lk.xroute(nil); got != ft.leaves[l].ls {
						t.Fatalf("spine %d downlink %d routes to wrong lane", s, l)
					}
				}
			}
			for id, p := range ft.hostPorts {
				if p == nil {
					continue
				}
				lane := g.Lane(blockLane[p.leaf])
				if p.up.sim != lane || p.down.sim != lane || p.up.xroute != nil || p.down.xroute != nil {
					t.Fatalf("host %d links not lane-local", id)
				}
			}
		})
	}
}

// TestShardedForwardingCoreTrafficMatchesSerial pushes frames host→TOR→
// core→TOR→host across racks (leaves under one forwarding spine) on both
// builds and requires identical delivery traces — the netsim-level
// determinism check below the full ask stack.
func TestShardedForwardingCoreTrafficMatchesSerial(t *testing.T) {
	type delivery struct {
		at  sim.Time
		src core.HostID
	}
	run := func(shards int) [8][]delivery {
		root := sim.New(3)
		hostLink := DefaultLinkConfig()
		coreLink := LinkConfig{BandwidthBps: 400e9, Propagation: 2 * time.Microsecond}
		ft, _ := NewFatTreeSharded(root, 1, 4, shards, hostLink, coreLink)
		ft.Spine(0).AttachSwitch(&ForwardingSwitch{Net: ft.Spine(0)})
		// Per-host slots in a fixed array: lanes append concurrently during
		// parallel windows, and distinct array elements share no state.
		var got [8][]delivery
		for r := 0; r < 4; r++ {
			for i := 0; i < 2; i++ {
				id := core.HostID(2*r + i)
				ls := ft.LeafSim(r)
				slot := &got[id]
				ft.AttachHostLeaf(r, id, hostFunc(func(f *Frame) {
					*slot = append(*slot, delivery{at: ls.Now(), src: f.Src})
					f.Release()
				}))
			}
			ft.Leaf(r).AttachSwitch(&ForwardingSwitch{Net: ft.Leaf(r)})
		}
		// Every host streams 5 frames to the "opposite" host two racks away.
		for r := 0; r < 4; r++ {
			for i := 0; i < 2; i++ {
				src := core.HostID(2*r + i)
				dst := core.HostID((2*r + 4 + i) % 8)
				ls := ft.LeafSim(r)
				for k := 0; k < 5; k++ {
					f := &Frame{Src: src, Dst: dst, WireBytes: 128 + 16*k, Owned: true}
					at := sim.Time((k + 1) * int(time.Microsecond))
					func(f *Frame, at sim.Time) {
						ls.At(at, func() { ft.HostSend(f) })
					}(f, at)
				}
			}
		}
		root.Run(0)
		return got
	}
	serial := run(1)
	for id, d := range serial {
		if len(d) != 5 {
			t.Fatalf("serial host %d got %d deliveries, want 5", id, len(d))
		}
	}
	for _, shards := range []int{2, 4} {
		sharded := run(shards)
		for id, want := range serial {
			gotd := sharded[id]
			if len(gotd) != len(want) {
				t.Fatalf("shards=%d host %d: %d deliveries, want %d", shards, id, len(gotd), len(want))
			}
			for i := range want {
				if gotd[i] != want[i] {
					t.Fatalf("shards=%d host %d delivery %d = %+v, want %+v", shards, id, i, gotd[i], want[i])
				}
			}
		}
	}
}

// hostFunc adapts a func to HostHandler.
type hostFunc func(*Frame)

func (h hostFunc) HandleFrame(f *Frame) { h(f) }
