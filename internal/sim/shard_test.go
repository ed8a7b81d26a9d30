package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// shardNode is a minimal model actor for kernel tests: it records every
// value it receives (with the receive time) into lane-local state, and
// optionally replies to a peer lane after the cut delay.
type shardNode struct {
	sim   *Simulation
	trace []string
}

func (n *shardNode) record(v int) {
	n.trace = append(n.trace, fmt.Sprintf("%v:%d", n.sim.Now(), v))
}

// TestShardPingPongMatchesSerial runs the same two-node full-duplex
// exchange on a standalone simulation and on a two-lane shard group and
// requires identical per-node traces: the conservative windows must not
// change what any node observes.
func TestShardPingPongMatchesSerial(t *testing.T) {
	const delay = time.Microsecond // cut delay == lookahead
	const rounds = 50

	type world struct {
		root *Simulation
		a, b *shardNode
	}
	build := func(shards bool) *world {
		w := &world{}
		if shards {
			root := New(7)
			g := NewShardGroup(root, 2, delay)
			w.root = root
			w.a = &shardNode{sim: g.Lane(0)}
			w.b = &shardNode{sim: g.Lane(1)}
		} else {
			root := New(7)
			w.root = root
			w.a = &shardNode{sim: root}
			w.b = &shardNode{sim: root}
		}
		var deliverA, deliverB func(any)
		deliverA = func(arg any) {
			v := arg.(int)
			w.a.record(v)
			if v < rounds {
				w.b.sim.InjectCall(w.a.sim, w.a.sim.Now().Add(delay), deliverB, v+1)
			}
		}
		deliverB = func(arg any) {
			v := arg.(int)
			w.b.record(v)
			if v < rounds {
				w.a.sim.InjectCall(w.b.sim, w.b.sim.Now().Add(delay), deliverA, v+1)
			}
		}
		// Full duplex: both nodes start a stream at the same instant, so in
		// the sharded build both lanes are busy in every window (worker
		// path), not just the inline single-lane path.
		w.a.sim.InjectCall(w.a.sim, Time(delay), deliverA, 0)
		w.b.sim.InjectCall(w.b.sim, Time(delay), deliverB, 0)
		return w
	}

	serial := build(false)
	serial.root.Run(0)
	sharded := build(true)
	sharded.root.Run(0)

	if !reflect.DeepEqual(serial.a.trace, sharded.a.trace) {
		t.Fatalf("node A diverged:\nserial  %v\nsharded %v", serial.a.trace, sharded.a.trace)
	}
	if !reflect.DeepEqual(serial.b.trace, sharded.b.trace) {
		t.Fatalf("node B diverged:\nserial  %v\nsharded %v", serial.b.trace, sharded.b.trace)
	}
	if serial.root.Now() != sharded.root.Now() {
		t.Fatalf("final clocks differ: serial %v sharded %v", serial.root.Now(), sharded.root.Now())
	}
	g := sharded.root.Group()
	if g.Stats().ParallelWindows == 0 {
		t.Fatalf("full-duplex exchange never took the parallel window path: %+v", g.Stats())
	}
}

// TestShardWakeFence pins the conservative fence on cross-lane wakes: a
// root process woken by a shard event must observe the shard exactly as
// of the fire point, even though the lane had more work inside the same
// lookahead window.
func TestShardWakeFence(t *testing.T) {
	root := New(1)
	g := NewShardGroup(root, 2, time.Microsecond)
	lane := g.Lane(0)

	counter := 0
	sg := NewSignal(lane)
	// Lane timeline: work at 1µs..., fire at 3µs, more work 10ns later —
	// inside the same window as the fire.
	lane.At(Time(1*Microsecond), func() { counter = 1 })
	lane.At(Time(3*Microsecond), func() {
		counter = 2
		sg.Fire()
	})
	lane.At(Time(3*Microsecond+10), func() { counter = 3 })

	observed := -1
	var observedAt Time
	root.Spawn("driver", func(p *Proc) {
		p.Wait(sg)
		observed = counter
		observedAt = p.Now()
	})
	root.Run(0)

	if observed != 2 {
		t.Fatalf("driver observed counter %d at wake, want 2 (fence must stop the lane at the fire point)", observed)
	}
	if observedAt != Time(3*Microsecond) {
		t.Fatalf("driver woke at %v, want 3µs", observedAt)
	}
	if counter != 3 {
		t.Fatalf("lane leftover event never ran: counter = %d, want 3", counter)
	}
}

// TestShardConcurrentRootWakes: two lanes wake root processes at the same
// instant, inside one parallel window. The wakes travel the root's mailbox
// and drain in lane order, so the drivers resume in that order on every run.
// Waking the root directly from both lane workers would race on the root's
// event heap, which `go test -race` reports.
func TestShardConcurrentRootWakes(t *testing.T) {
	for round := 0; round < 10; round++ {
		root := New(int64(round))
		g := NewShardGroup(root, 2, time.Microsecond)
		var woke []int
		for i := 0; i < 2; i++ {
			i, sg := i, NewSignal(g.Lane(i))
			g.Lane(i).At(Time(3*Microsecond), sg.Fire)
			root.Spawn(fmt.Sprintf("driver%d", i), func(p *Proc) {
				p.Wait(sg)
				woke = append(woke, i)
			})
		}
		root.Run(0)
		if !reflect.DeepEqual(woke, []int{0, 1}) {
			t.Fatalf("round %d: drivers resumed in order %v, want [0 1]", round, woke)
		}
		if g.Stats().ParallelWindows == 0 {
			t.Fatalf("round %d: the wakes never ran in a parallel window: %+v", round, g.Stats())
		}
	}
}

// TestShardRunLimit checks serial Run limit semantics survive sharding:
// events at exactly the limit run, later ones do not, and every lane's
// clock ends at the limit.
func TestShardRunLimit(t *testing.T) {
	root := New(1)
	g := NewShardGroup(root, 2, time.Microsecond)
	var ran []int
	g.Lane(0).At(Time(1*Microsecond), func() { ran = append(ran, 1) })
	g.Lane(1).At(Time(2*Microsecond), func() { ran = append(ran, 2) })
	g.Lane(0).At(Time(5*Microsecond), func() { ran = append(ran, 5) })
	end := root.Run(Time(2 * Microsecond))
	if end != Time(2*Microsecond) {
		t.Fatalf("Run returned %v, want 2µs", end)
	}
	if !reflect.DeepEqual(ran, []int{1, 2}) {
		t.Fatalf("ran = %v, want [1 2]", ran)
	}
	if root.Now() != Time(2*Microsecond) || g.Lane(0).Now() != Time(2*Microsecond) {
		t.Fatalf("clocks not at limit: root %v lane0 %v", root.Now(), g.Lane(0).Now())
	}
	// Resume picks up the leftover event.
	root.Run(0)
	if !reflect.DeepEqual(ran, []int{1, 2, 5}) {
		t.Fatalf("after resume ran = %v, want [1 2 5]", ran)
	}
}

// TestShardEnterControlOrder pins the control rendezvous: when several
// lanes suspend for an exclusive section in one window, grants are served
// in lane order regardless of goroutine interleaving.
func TestShardEnterControlOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		root := New(int64(round))
		g := NewShardGroup(root, 3, time.Microsecond)
		var order []int
		for i := 0; i < 3; i++ {
			i := i
			lane := g.Lane(i)
			lane.At(Time(1*Microsecond), func() {
				release := g.EnterControlFrom(lane)
				order = append(order, i) // exclusive: no lock needed
				release()
			})
		}
		root.Run(0)
		if !reflect.DeepEqual(order, []int{0, 1, 2}) {
			t.Fatalf("round %d: control sections ran in order %v, want [0 1 2]", round, order)
		}
		if g.Stats().ControlRendezvs != 3 {
			t.Fatalf("round %d: rendezvous count = %d, want 3", round, g.Stats().ControlRendezvs)
		}
	}
}

// TestShardInjectOrderDeterministic floods one target lane from three
// source lanes at identical timestamps and requires the drain order to be
// reproducible (sorted by source lane, then source seq).
func TestShardInjectOrderDeterministic(t *testing.T) {
	run := func() []string {
		root := New(9)
		g := NewShardGroup(root, 4, time.Microsecond)
		target := &shardNode{sim: g.Lane(3)}
		recv := func(arg any) { target.record(arg.(int)) }
		for lane := 0; lane < 3; lane++ {
			lane := lane
			src := g.Lane(lane)
			// Each source lane sends two same-timestamp values per step.
			for step := 0; step < 5; step++ {
				at := Time((step + 1) * int(Microsecond))
				src.At(at, func() {
					target.sim.InjectCall(src, src.Now().Add(time.Microsecond), recv, lane*100)
					target.sim.InjectCall(src, src.Now().Add(time.Microsecond), recv, lane*100+1)
				})
			}
		}
		root.Run(0)
		return target.trace
	}
	first := run()
	if len(first) != 30 {
		t.Fatalf("expected 30 deliveries, got %d", len(first))
	}
	for i := 0; i < 10; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("inject order not deterministic:\nfirst %v\n got  %v", first, got)
		}
	}
}

// TestShardLookaheadViolationPanics: a cross-lane inject below the window
// bound must fail loudly during a parallel window — silent reordering
// would corrupt causality.
func TestShardLookaheadViolationPanics(t *testing.T) {
	root := New(1)
	g := NewShardGroup(root, 2, time.Microsecond)
	l0, l1 := g.Lane(0), g.Lane(1)
	defer func() {
		if recover() == nil {
			t.Fatalf("under-lookahead inject did not panic")
		}
	}()
	// Serial phase (construction): inject into a lane "in the past" of the
	// target after the target has advanced.
	l1.At(Time(5*Microsecond), func() {})
	root.Run(0) // l1 advances to 5µs
	l1.InjectCall(l0, Time(1*Microsecond), func(any) {}, nil)
}

// TestShardResourceCrossLaneWaiter: a process can wait on a resource
// owned by another lane during serial phases; the wake must dispatch it
// on its own lane at the release time.
func TestShardResourceCrossLaneWaiter(t *testing.T) {
	root := New(1)
	_ = NewShardGroup(root, 2, time.Microsecond)
	res := NewResource(root, 1) // root-owned capacity (e.g. a global token)

	var tookAt, wokeAt Time
	root.Spawn("holder", func(p *Proc) {
		res.Acquire(p)
		p.Sleep(3 * time.Microsecond)
		res.Release()
	})
	root.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Microsecond)
		res.Acquire(p) // queues behind holder
		tookAt = p.Now()
		res.Release()
		wokeAt = p.Now()
	})
	root.Run(0)
	if tookAt != Time(3*Microsecond) || wokeAt != Time(3*Microsecond) {
		t.Fatalf("waiter acquired at %v released at %v, want 3µs both", tookAt, wokeAt)
	}
}

// TestShardSerialSeamUngrouped: a simulation never placed in a group must
// not touch any shard machinery — Group() is nil and Run uses the serial
// loop (guarded here by the absence of group-only panics plus identical
// semantics pinned across the rest of the suite).
func TestShardSerialSeamUngrouped(t *testing.T) {
	s := New(1)
	if s.Group() != nil {
		t.Fatalf("standalone simulation reports a shard group")
	}
	if s.ShardLane() != laneRoot {
		t.Fatalf("standalone simulation lane = %d, want root", s.ShardLane())
	}
	hits := 0
	s.After(time.Microsecond, func() { hits++ })
	s.Run(0)
	if hits != 1 {
		t.Fatalf("serial run broken: hits = %d", hits)
	}
}
