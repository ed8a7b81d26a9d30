package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// TestAtCallOrdering verifies that closure events (At) and arg-carrying
// events (AtCall) interleave in exact scheduling order: the kernel's total
// order is (time, seq) regardless of which entry point scheduled the event.
func TestAtCallOrdering(t *testing.T) {
	s := New(1)
	var got []int
	push := func(a any) { got = append(got, *a.(*int)) }
	vals := make([]int, 6)
	for i := range vals {
		vals[i] = i
	}
	// Interleave styles at the same and different instants.
	s.AtCall(10, push, &vals[0])
	s.At(10, func() { got = append(got, vals[1]) })
	s.AtCall(10, push, &vals[2])
	s.At(5, func() { got = append(got, vals[3]) })
	s.AtCall(5, push, &vals[4])
	s.AtCall(20, push, &vals[5])
	s.Run(0)
	want := []int{3, 4, 0, 1, 2, 5}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("execution order %v, want %v", got, want)
	}
}

// TestAfterCall verifies relative scheduling of arg-carrying events and the
// negative-delay panic.
func TestAfterCall(t *testing.T) {
	s := New(1)
	fired := Time(-1)
	x := 7
	s.After(3*time.Microsecond, func() {
		s.AfterCall(2*time.Microsecond, func(a any) {
			if *a.(*int) != 7 {
				t.Errorf("arg = %d, want 7", *a.(*int))
			}
			fired = s.Now()
		}, &x)
	})
	s.Run(0)
	if fired != Time(5*time.Microsecond) {
		t.Fatalf("fired at %v, want 5µs", fired)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterCall did not panic")
		}
	}()
	s.AfterCall(-1, func(any) {}, nil)
}

// TestTimerGenerations exercises slot recycling: a Timer held across its
// event firing must become inert even after its slot is reused by a new
// event, and stopping the stale Timer must not cancel the new occupant.
func TestTimerGenerations(t *testing.T) {
	s := New(1)
	var ranA, ranB bool
	ta := s.At(1, func() { ranA = true })
	s.Run(0)
	if !ranA {
		t.Fatal("first event did not run")
	}
	// The slot freed by ta's event is now the sole free slot; this new event
	// reuses it with a bumped generation.
	s.At(2, func() { ranB = true })
	if ta.Stop() {
		t.Fatal("stale Timer.Stop reported true after slot reuse")
	}
	if ta.Pending() {
		t.Fatal("stale Timer.Pending reported true after slot reuse")
	}
	s.Run(0)
	if !ranB {
		t.Fatal("recycled-slot event was cancelled by a stale Timer")
	}
}

// TestStopSemantics verifies cancel-before-fire, double-stop, and the
// Pending counter across the cancel path.
func TestStopSemantics(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Microsecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer not pending after schedule")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d after stop, want 0", s.Pending())
	}
	s.Run(0)
	if ran {
		t.Fatal("stopped event ran")
	}
	var zero Timer
	if zero.Stop() || zero.Pending() {
		t.Fatal("zero Timer is not inert")
	}
}

// TestSlotReuseChurn drives many schedule/fire/cancel cycles through a small
// number of slots and checks the total order and liveness accounting stay
// exact. This is the free-list stress: with interleaved cancels the store
// should stay small while generations climb.
func TestSlotReuseChurn(t *testing.T) {
	s := New(42)
	rng := rand.New(rand.NewSource(7))
	var fired, cancelled, expectFired int
	var last Time
	var timers []Timer
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			d := time.Duration(rng.Intn(50)) * time.Nanosecond
			tm := s.After(d, func() {
				if s.Now() < last {
					t.Errorf("time went backwards: %v < %v", s.Now(), last)
				}
				last = s.Now()
				fired++
			})
			timers = append(timers, tm)
		}
		// Cancel a random prior timer (may already have fired: no-op).
		if len(timers) > 0 && rng.Intn(2) == 0 {
			if timers[rng.Intn(len(timers))].Stop() {
				cancelled++
			}
		}
		s.Run(s.Now().Add(time.Duration(rng.Intn(30)) * time.Nanosecond))
	}
	s.Run(0)
	expectFired = len(timers) - cancelled
	if fired != expectFired {
		t.Fatalf("fired %d events, want %d (scheduled %d, cancelled %d)",
			fired, expectFired, len(timers), cancelled)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d at drain, want 0", s.Pending())
	}
	// The store must have recycled slots rather than growing per event.
	if len(s.store) > 64 {
		t.Fatalf("event store grew to %d slots for ~%d concurrent events", len(s.store), 8*5)
	}
}

// TestSchedulingAllocs verifies the steady-state claim: after warm-up,
// scheduling and firing an arg-carrying event allocates nothing.
func TestSchedulingAllocs(t *testing.T) {
	s := New(1)
	sink := 0
	fn := func(a any) { sink += *a.(*int) }
	arg := new(int)
	*arg = 1
	// Warm up the store and heap.
	for i := 0; i < 64; i++ {
		s.AfterCall(time.Nanosecond, fn, arg)
	}
	s.Run(0)
	avg := testing.AllocsPerRun(1000, func() {
		s.AfterCall(time.Nanosecond, fn, arg)
		s.Run(0)
	})
	if avg != 0 {
		t.Fatalf("steady-state AfterCall+Run allocates %.2f objects/op, want 0", avg)
	}
}

// TestStatsOnScriptedSchedule pins the kernel's counters on a schedule whose
// every event is known: a stopped timer counts once as cancelled — when its
// dead entry surfaces — and never as fired; a process switch is a dispatch
// and a fired event; a sleep that is next in line is neither; a process that
// Close unwinds is not dispatched again.
func TestStatsOnScriptedSchedule(t *testing.T) {
	s := New(1)
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("fresh simulation has stats %+v", got)
	}
	s.At(10, func() {})
	stopped := s.At(20, func() { t.Error("stopped timer fired") })
	s.At(30, func() {})
	var slept Time
	sleeper := s.Spawn("sleeper", func(p *Proc) { p.Sleep(5); p.Sleep(5); p.Sleep(12); slept = p.Now() })
	s.Spawn("parked", func(p *Proc) { p.Wait(NewSignal(s)) }) // start, then parked for good
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop did not report exactly one cancellation")
	}
	// Queued: three timers and two spawn events; nothing has run yet.
	if got, want := s.Stats(), (Stats{HeapHigh: 5}); got != want {
		t.Fatalf("before Run: %+v, want %+v", got, want)
	}
	s.Run(0)
	if !sleeper.done || slept != 22 {
		t.Fatalf("sleeper done %v at %v, want done at 22", sleeper.done, slept)
	}
	// The sleeper is dispatched at its start, at 5 (parked's start was queued
	// at 0) and at 10 (the timer at 10 was queued there first). Its third
	// sleep, to 22, is next in line — the stopped timer at 20 is dead, reaped
	// then, and the next live event is at 30 — so it advances in place: no
	// event, no dispatch, where the kernel used to count one of each (7 fired,
	// 5 dispatches). Fired: 2 live timers + sleeper's 3 dispatches + parked's
	// 1. The heap never held more than the five entries queued up front.
	want := Stats{Fired: 6, Cancelled: 1, Dispatches: 4, HeapHigh: 5}
	if got := s.Stats(); got != want {
		t.Fatalf("after Run: %+v, want %+v", got, want)
	}
	s.Close()
	if got := s.Stats(); got != want {
		t.Fatalf("Close moved the counters: %+v, want %+v", got, want)
	}
}

// TestSleepAdvancesInPlace: a sleep whose wake-up would be the next event
// moves the clock and returns, with no event and no process switch.
func TestSleepAdvancesInPlace(t *testing.T) {
	s := New(1)
	var woke []Time
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5)
		woke = append(woke, p.Now())
		p.SleepUntil(40)
		woke = append(woke, p.Now())
	})
	if end := s.Run(0); end != 40 || fmt.Sprint(woke) != "[5ns 40ns]" {
		t.Fatalf("Run ended at %v with wake-ups %v, want 40ns and [5ns 40ns]", end, woke)
	}
	// The spawn event is the only event and the only dispatch.
	if got, want := s.Stats(), (Stats{Fired: 1, Dispatches: 1, HeapHigh: 1}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestSleepYieldsToEventAtWakeInstant: an event already queued at exactly the
// wake instant runs before the sleeper resumes, as it did when every sleep
// was an event; so does an earlier one.
func TestSleepYieldsToEventAtWakeInstant(t *testing.T) {
	for _, at := range []Time{7, 10} {
		s := New(1)
		var order []string
		s.At(at, func() { order = append(order, "event") })
		s.Spawn("sleeper", func(p *Proc) {
			p.Sleep(10)
			order = append(order, fmt.Sprintf("proc@%v", p.Now()))
		})
		s.Run(0)
		if fmt.Sprint(order) != "[event proc@10ns]" {
			t.Fatalf("event at %v: order %v, want [event proc@10ns]", at, order)
		}
		if got := s.Stats().Dispatches; got != 2 {
			t.Fatalf("event at %v: %d dispatches, want 2 (the sleep parks)", at, got)
		}
	}
}

// TestSleepRespectsRunLimit: a wake-up past Run's limit is not advanced to;
// Run stops at the limit and the process resumes on the next Run.
func TestSleepRespectsRunLimit(t *testing.T) {
	s := New(1)
	var resumed Time = -1
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(100)
		resumed = p.Now()
	})
	if end := s.Run(50); end != 50 || s.Now() != 50 || resumed != -1 {
		t.Fatalf("Run(50) ended at %v (now %v), sleeper resumed at %v; want 50, not resumed", end, s.Now(), resumed)
	}
	if s.Run(0); resumed != 100 {
		t.Fatalf("sleeper resumed at %v on the next Run, want 100", resumed)
	}
	// A wake-up exactly at the limit is within it, and advances in place.
	s2 := New(1)
	s2.Spawn("sleeper", func(p *Proc) { p.Sleep(50); resumed = p.Now() })
	if end := s2.Run(50); end != 50 || resumed != 50 || s2.Stats().Dispatches != 1 {
		t.Fatalf("Run(50): ended %v, resumed %v, %d dispatches; want 50, 50, 1", end, resumed, s2.Stats().Dispatches)
	}
}

// TestSleepParksOnLanes: every simulation of a shard group keeps scheduling
// the wake-up as an event.
func TestSleepParksOnLanes(t *testing.T) {
	var resumed Time = -1
	// The root's own heap says nothing about the lanes' events: a root
	// process must not skip past the lane event at 3µs.
	root := New(1)
	g := NewShardGroup(root, 2, time.Microsecond)
	lane := g.Lane(1)
	laneRan, observed := false, false
	lane.At(Time(3*Microsecond), func() { laneRan = true })
	root.Spawn("driver", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		observed = laneRan
	})
	lane.Spawn("lane-sleeper", func(p *Proc) {
		p.Sleep(5)
		resumed = p.Now()
	})
	root.Run(0)
	if !observed || root.Stats().Dispatches != 2 {
		t.Fatalf("root driver saw the lane event %v after %d dispatches, want true after 2", observed, root.Stats().Dispatches)
	}
	if resumed != 5 || lane.Stats().Dispatches != 2 {
		t.Fatalf("lane sleeper resumed at %v after %d dispatches, want 5 after 2", resumed, lane.Stats().Dispatches)
	}
}

// TestAdvanceInPlaceRule holds Advance, the continuation rule callback chains
// share with SleepUntil, to its definition: a continuation at t runs in place
// exactly when nothing live is queued at or before t (a stopped timer there
// does not count), the run is serial, and t is within Run's limit; an
// instant not in the future always passes.
func TestAdvanceInPlaceRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(s *Simulation) // queues what the continuation at 10 meets
		limit Time
		want  bool
	}{
		{"nothing queued", func(*Simulation) {}, 0, true},
		{"event later", func(s *Simulation) { s.At(11, func() {}) }, 0, true},
		{"event at the instant", func(s *Simulation) { s.At(10, func() {}) }, 0, false},
		{"event before", func(s *Simulation) { s.At(7, func() {}) }, 0, false},
		{"stopped timer before", func(s *Simulation) { s.At(7, func() {}).Stop() }, 0, true},
		{"past the limit", func(*Simulation) {}, 9, false},
		{"at the limit", func(*Simulation) {}, 10, true},
	} {
		s := New(1)
		var got, past bool
		now := Time(-1)
		s.At(2, func() {
			tc.setup(s)
			past = s.Advance(1) && s.Advance(2)
			got = s.Advance(10)
			now = s.Now()
		})
		s.Run(tc.limit)
		if got != tc.want || !past {
			t.Errorf("%s: Advance(10) = %v, want %v (instants not in the future: %v)", tc.name, got, tc.want, past)
		}
		if want := map[bool]Time{true: 10, false: 2}[tc.want]; now != want {
			t.Errorf("%s: clock at %v after Advance, want %v", tc.name, now, want)
		}
	}
	if s := New(1); s.Advance(10) || s.Now() != 0 {
		t.Error("Advance outside Run moved the clock")
	}
}

// TestChainYieldsToEventAtItsInstant: a callback chain that finds an event
// queued at exactly its instant schedules its continuation there, which runs
// after that event — the order a process sleeping to the instant sees — and
// in place it passes only where that process would not have parked.
func TestChainYieldsToEventAtItsInstant(t *testing.T) {
	s := New(1)
	var order []string
	var step func()
	n := 0
	step = func() {
		for n < 3 {
			order = append(order, fmt.Sprintf("chain%d@%v", n, s.Now()))
			n++
			if at := s.Now() + 10; !s.Advance(at) {
				s.At(at, step)
				return
			}
		}
	}
	s.At(20, func() { order = append(order, "event@20ns") })
	s.At(0, step)
	s.Run(0)
	if got, want := fmt.Sprint(order), "[chain0@0s chain1@10ns event@20ns chain2@20ns]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	// The continuation at 20 was an event; the one at 10 was not.
	if got := s.Stats().Fired; got != 3 {
		t.Fatalf("%d events fired, want 3", got)
	}
}

// TestResourceGrantsMixedWaitersInOrder: processes (Acquire) and callbacks
// (AcquireFunc) wait for a contended unit in one FIFO and are granted it in
// arrival order, each at the instant the previous holder releases.
func TestResourceGrantsMixedWaitersInOrder(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	var order []string
	hold := func(name string) { order = append(order, fmt.Sprintf("%s@%v", name, s.Now())) }
	callback := func(name string) func() {
		return func() {
			hold(name)
			s.After(10, r.Release)
		}
	}
	proc := func(name string) func(p *Proc) {
		return func(p *Proc) {
			r.Acquire(p)
			hold(name)
			p.Sleep(10)
			r.Release()
		}
	}
	s.Spawn("p0", proc("p0")) // takes the unit at 0
	s.At(1, func() {
		if r.AcquireFunc(callback("c1")) {
			t.Error("AcquireFunc granted a held unit")
		}
	})
	s.At(2, func() { s.Spawn("p2", proc("p2")) })
	s.At(3, func() { r.AcquireFunc(callback("c3")) })
	s.Run(0)
	if got, want := fmt.Sprint(order), "[p0@0s c1@10ns p2@20ns c3@30ns]"; got != want {
		t.Fatalf("grants %s, want %s", got, want)
	}
	if r.inUse != 0 || r.BusyTime() != 40 {
		t.Fatalf("in use %d, busy %v after the run; want 0, 40ns", r.inUse, r.BusyTime())
	}
}

// TestHandBackResumesBeforeLaterEvents: a process parked for a callback chain
// and handed control back with its Resumer runs within the chain's event,
// before an event already queued behind it at the same instant — which a wake
// through Signal.Fire, an event of its own, would follow.
func TestHandBackResumesBeforeLaterEvents(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("loop", func(p *Proc) {
		resume := p.Resumer()
		s.At(5, func() {
			order = append(order, "chain")
			s.At(5, func() { order = append(order, "later") })
			resume()
		})
		p.Park()
		order = append(order, fmt.Sprintf("loop@%v", p.Now()))
	})
	s.Run(0)
	if got, want := fmt.Sprint(order), "[chain loop@5ns later]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	// Dispatched at its start and by the hand-back; no wake-up event.
	if st := s.Stats(); st.Dispatches != 2 || st.Fired != 3 {
		t.Fatalf("%d dispatches, %d events; want 2, 3", st.Dispatches, st.Fired)
	}
}

// TestSubscribeRunsWithWaitersInOrder: a callback subscribed to a signal runs
// as its own event at the Fire, in subscription order with waiting
// processes, once.
func TestSubscribeRunsWithWaitersInOrder(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	var order []string
	s.Spawn("p", func(p *Proc) { p.Wait(sg); order = append(order, "p") })
	s.At(1, func() { sg.Subscribe(func() { order = append(order, "cb") }) })
	s.At(2, sg.Fire)
	s.At(3, sg.Fire)
	s.Run(0)
	if got, want := fmt.Sprint(order), "[p cb]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}
