package netsim

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/wire"
)

// fwdSwitch is a trivial switch program that forwards every frame.
type fwdSwitch struct{ fab SwitchFabric }

func (fs *fwdSwitch) HandleIngress(f *Frame) { fs.fab.SwitchSend(f) }

// sinkSwitch records frames that entered a switch program.
type sinkSwitch struct {
	got []*Frame
	fab SwitchFabric
}

func (ss *sinkSwitch) HandleIngress(f *Frame) { ss.got = append(ss.got, f) }

type sinkHost struct{ got []*Frame }

func (sh *sinkHost) HandleFrame(f *Frame) { sh.got = append(sh.got, f) }

func dataFrame(src, dst core.HostID, task core.TaskID) *Frame {
	return &Frame{
		Src: src, Dst: dst,
		Pkt:       &wire.Packet{Type: wire.TypeData, Task: task},
		WireBytes: 128,
		Owned:     true,
	}
}

func buildFatTree(t *testing.T, spines, leaves, hostsPerLeaf int) (*sim.Simulation, *FatTree, map[core.HostID]*sinkHost) {
	t.Helper()
	s := sim.New(1)
	ft := NewFatTree(s, spines, leaves, DefaultLinkConfig(), DefaultLinkConfig())
	for l := 0; l < leaves; l++ {
		ft.Leaf(l).AttachSwitch(&fwdSwitch{ft.Leaf(l)})
	}
	for sp := 0; sp < spines; sp++ {
		ft.Spine(sp).AttachSwitch(&fwdSwitch{ft.Spine(sp)})
	}
	hosts := make(map[core.HostID]*sinkHost)
	for l := 0; l < leaves; l++ {
		for i := 0; i < hostsPerLeaf; i++ {
			id := core.HostID(l*hostsPerLeaf + i)
			h := &sinkHost{}
			ft.AttachHostLeaf(l, id, h)
			hosts[id] = h
		}
	}
	return s, ft, hosts
}

func TestFatTreeCrossLeafTraversesOneSpine(t *testing.T) {
	s, ft, hosts := buildFatTree(t, 2, 3, 2)
	// Host 0 (leaf 0) → host 5 (leaf 2): must cross the task's spine.
	ft.HostSend(dataFrame(0, 5, 7))
	s.Run(0)
	if len(hosts[5].got) != 1 {
		t.Fatalf("host 5 got %d frames, want 1", len(hosts[5].got))
	}
	want := ft.SpineFor(7)
	for sp := 0; sp < len(ft.spines); sp++ {
		tx := ft.SpineUplink(0, sp).Stats().TxFrames
		if sp == want && tx != 1 {
			t.Fatalf("spine %d carried %d frames, want 1", sp, tx)
		}
		if sp != want && tx != 0 {
			t.Fatalf("spine %d carried %d frames, want 0", sp, tx)
		}
	}
}

func TestFatTreeLocalDeliveryStaysOnLeaf(t *testing.T) {
	s, ft, hosts := buildFatTree(t, 2, 2, 2)
	ft.HostSend(dataFrame(0, 1, 3)) // both on leaf 0
	s.Run(0)
	if len(hosts[1].got) != 1 {
		t.Fatalf("host 1 got %d frames, want 1", len(hosts[1].got))
	}
	for sp := 0; sp < len(ft.spines); sp++ {
		if tx := ft.SpineUplink(0, sp).Stats().TxFrames; tx != 0 {
			t.Fatalf("local delivery crossed spine %d (%d frames)", sp, tx)
		}
	}
}

func TestFatTreeLeafAddressedFrameEntersRemoteLeafProgram(t *testing.T) {
	s := sim.New(1)
	ft := NewFatTree(s, 2, 2, DefaultLinkConfig(), DefaultLinkConfig())
	ft.Leaf(0).AttachSwitch(&fwdSwitch{ft.Leaf(0)})
	sink := &sinkSwitch{}
	ft.Leaf(1).AttachSwitch(sink)
	for sp := 0; sp < 2; sp++ {
		ft.Spine(sp).AttachSwitch(&fwdSwitch{ft.Spine(sp)})
	}
	h := &sinkHost{}
	ft.AttachHostLeaf(0, 0, h)
	// A fetch-style request from host 0 addressed to leaf 1: relayed by
	// leaf 0 over the task's spine, then into leaf 1's program.
	f := dataFrame(0, LeafAddr(1), 9)
	f.Pkt.Type = wire.TypeFetch
	ft.HostSend(f)
	s.Run(0)
	if len(sink.got) != 1 {
		t.Fatalf("leaf 1 program saw %d frames, want 1", len(sink.got))
	}
	if sink.got[0].Dst != LeafAddr(1) {
		t.Fatalf("leaf 1 saw frame for %d", sink.got[0].Dst)
	}
}

func TestFatTreeSpineForIsStablePerTask(t *testing.T) {
	s := sim.New(1)
	ft := NewFatTree(s, 3, 2, DefaultLinkConfig(), DefaultLinkConfig())
	seen := map[int]bool{}
	for task := core.TaskID(0); task < 12; task++ {
		sp := ft.SpineFor(task)
		if sp < 0 || sp >= 3 {
			t.Fatalf("task %d mapped to spine %d", task, sp)
		}
		if sp != ft.SpineFor(task) {
			t.Fatal("SpineFor not stable")
		}
		seen[sp] = true
	}
	if len(seen) != 3 {
		t.Fatalf("12 tasks hit only %d of 3 spines", len(seen))
	}
}

func TestFatTreeAddressHelpers(t *testing.T) {
	if l, ok := LeafIndex(LeafAddr(2), 4); !ok || l != 2 {
		t.Fatalf("LeafIndex(LeafAddr(2)) = %d, %v", l, ok)
	}
	if _, ok := LeafIndex(LeafAddr(4), 4); ok {
		t.Fatal("leaf 4 of 4 must not resolve")
	}
	if sp, ok := SpineIndex(SpineAddr(1), 2); !ok || sp != 1 {
		t.Fatalf("SpineIndex(SpineAddr(1)) = %d, %v", sp, ok)
	}
	if _, ok := SpineIndex(LeafAddr(0), 8); ok {
		t.Fatal("a leaf address must not resolve as a spine")
	}
	if _, ok := LeafIndex(3, 4); ok {
		t.Fatal("a host ID must not resolve as a leaf")
	}
}

// countingSwitch counts frames its program sees and forwards them.
type countingSwitch struct {
	fab  SwitchFabric
	seen int
}

func (c *countingSwitch) HandleIngress(f *Frame) {
	c.seen++
	c.fab.SwitchSend(f)
}

// buildForwardingCore is the §7 multi-rack configuration of the fabric: two
// leaves (TORs) with counting programs under one spine that only forwards.
// Hosts 0,1 sit on leaf 0; hosts 2,3 on leaf 1.
func buildForwardingCore(t *testing.T) (*sim.Simulation, *FatTree, map[core.HostID]*collector, []*countingSwitch) {
	t.Helper()
	s := sim.New(1)
	ft := NewFatTree(s, 1, 2, DefaultLinkConfig(), DefaultLinkConfig())
	ft.Spine(0).AttachSwitch(&ForwardingSwitch{Net: ft.Spine(0)})
	tors := make([]*countingSwitch, 2)
	for l := range tors {
		tors[l] = &countingSwitch{fab: ft.Leaf(l)}
		ft.Leaf(l).AttachSwitch(tors[l])
	}
	cs := make(map[core.HostID]*collector)
	for h := core.HostID(0); h < 4; h++ {
		cs[h] = &collector{s: s}
		ft.AttachHostLeaf(int(h)/2, h, cs[h])
	}
	return s, ft, cs, tors
}

// TestFatTreeForwardingSpine pins what the forwarding-core configuration
// must do — §7's routing rule, hop by hop.
func TestFatTreeForwardingSpine(t *testing.T) {
	t.Run("intra-rack stays on the leaf", func(t *testing.T) {
		s, ft, cs, tors := buildForwardingCore(t)
		ft.HostSend(frame(0, 1, 4))
		s.Run(0)
		if len(cs[1].frames) != 1 {
			t.Fatalf("intra-rack frame not delivered")
		}
		if tors[0].seen != 1 || tors[1].seen != 0 {
			t.Fatalf("TOR programs saw %d/%d frames, want 1/0", tors[0].seen, tors[1].seen)
		}
		if tx := ft.SpineUplink(0, 0).Stats().TxFrames; tx != 0 {
			t.Fatalf("intra-rack frame crossed the core (%d frames)", tx)
		}
	})
	t.Run("cross-rack bypasses the remote program", func(t *testing.T) {
		s, ft, cs, tors := buildForwardingCore(t)
		ft.HostSend(frame(0, 3, 4)) // leaf 0 → leaf 1
		s.Run(0)
		if len(cs[3].frames) != 1 {
			t.Fatal("cross-rack frame not delivered")
		}
		// §7: only the sender's TOR runs the program; the receiver's TOR is
		// bypassed for traffic arriving from the core.
		if tors[0].seen != 1 || tors[1].seen != 0 {
			t.Fatalf("TOR programs saw %d/%d frames, want 1 (sender) / 0 (bypass)", tors[0].seen, tors[1].seen)
		}
	})
	t.Run("three-hop latency", func(t *testing.T) {
		s, ft, cs, _ := buildForwardingCore(t)
		ft.HostSend(frame(0, 3, 32)) // 334 B
		s.Run(0)
		// Path: host ser + prop, TOR latency, TOR→core ser + prop, core
		// latency, core→TOR ser + prop, TOR latency, TOR→host ser + prop.
		bw := 100e9
		ser := time.Duration(float64(334*8) / bw * float64(time.Second))
		want := sim.Time(0).Add(4*ser + 4*time.Microsecond + 3*defaultSwitchLatency)
		if got := cs[3].at[0]; got != want {
			t.Fatalf("arrival %v, want %v", got, want)
		}
		// One event per link: each switch hop rides its link's delivery.
		if fired := s.Stats().Fired; fired != 4 {
			t.Fatalf("%d events for one frame across four links, want 4", fired)
		}
	})
	t.Run("core-link bottleneck", func(t *testing.T) {
		// Cross-rack flows share the TOR→core uplink: its stats must account
		// every cross-rack frame and no intra-rack ones.
		s, ft, _, _ := buildForwardingCore(t)
		for i := 0; i < 50; i++ {
			ft.HostSend(frame(0, 3, 32)) // cross
			ft.HostSend(frame(0, 1, 32)) // intra
		}
		s.Run(0)
		if got := ft.SpineUplink(0, 0).Stats().TxFrames; got != 50 {
			t.Fatalf("core uplink carried %d frames, want 50", got)
		}
	})
	t.Run("lookups", func(t *testing.T) {
		_, ft, _, _ := buildForwardingCore(t)
		if len(ft.leaves) != 2 || len(ft.spines) != 1 {
			t.Fatalf("leaves, spines = %d, %d", len(ft.leaves), len(ft.spines))
		}
		if ft.LeafOf(0) != 0 || ft.LeafOf(3) != 1 {
			t.Fatal("LeafOf wrong")
		}
		if ft.Uplink(2) == nil || ft.Downlink(2) == nil || ft.SpineUplink(1, 0) == nil {
			t.Fatal("link accessors nil")
		}
	})
}

func TestFatTreePanicsOnMisuse(t *testing.T) {
	s := sim.New(1)
	ft := NewFatTree(s, 1, 1, DefaultLinkConfig(), DefaultLinkConfig())
	c := &collector{s: s}
	ft.AttachHostLeaf(0, 1, c)
	for name, fn := range map[string]func(){
		"double attach":        func() { ft.AttachHostLeaf(0, 1, c) },
		"bad leaf":             func() { ft.AttachHostLeaf(5, 2, c) },
		"host in switch range": func() { ft.AttachHostLeaf(0, LeafAddr(0), c) },
		"unattached send":      func() { ft.HostSend(frame(9, 1, 1)) },
		"zero leaves":          func() { NewFatTree(s, 1, 0, DefaultLinkConfig(), DefaultLinkConfig()) },
		"zero spines":          func() { NewFatTree(s, 0, 1, DefaultLinkConfig(), DefaultLinkConfig()) },
		"too many leaves":      func() { NewFatTree(s, 1, 0x801, DefaultLinkConfig(), DefaultLinkConfig()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFatTreeUnroutableIsCountedDrop: a leaf or spine asked to send to a
// destination that is neither an attached host nor a fabric switch counts
// and drops the frame, exactly as the rack's Network does — with checksum
// verification disabled a damaged Flow.Host becomes an ACK's destination.
func TestFatTreeUnroutableIsCountedDrop(t *testing.T) {
	s, ft, hosts := buildFatTree(t, 1, 2, 1)
	ft.Leaf(0).SwitchSend(dataFrame(0, 77, 1))           // host 77 not attached
	ft.Leaf(1).SwitchSend(dataFrame(1, SpineAddr(5), 1)) // no such spine
	ft.Spine(0).SwitchSend(dataFrame(0, 78, 1))
	s.Run(0)
	if got := ft.Unroutable(); got != 3 {
		t.Fatalf("Unroutable = %d, want 3", got)
	}
	for id, h := range hosts {
		if len(h.got) != 0 {
			t.Fatalf("host %d received %d frames of an unroutable send", id, len(h.got))
		}
	}
}
