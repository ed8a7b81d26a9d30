package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestProcSleep(t *testing.T) {
	s := New(1)
	var at []Time
	s.Spawn("sleeper", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(5 * Microsecond)
		at = append(at, p.Now())
		p.Sleep(5 * Microsecond)
		at = append(at, p.Now())
	})
	s.Run(0)
	want := []Time{0, Time(5 * Microsecond), Time(10 * Microsecond)}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("at = %v, want %v", at, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New(1)
	var order []string
	s.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(2 * Microsecond)
		order = append(order, "a2")
	})
	s.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(1 * Microsecond)
		order = append(order, "b1")
	})
	s.Run(0)
	want := []string{"a0", "b0", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcSleepUntil(t *testing.T) {
	s := New(1)
	s.Spawn("p", func(p *Proc) {
		p.SleepUntil(Time(7 * Microsecond))
		if p.Now() != Time(7*Microsecond) {
			t.Errorf("now = %v, want 7µs", p.Now())
		}
		// In the past: no-op.
		p.SleepUntil(Time(3 * Microsecond))
		if p.Now() != Time(7*Microsecond) {
			t.Errorf("SleepUntil past moved time to %v", p.Now())
		}
	})
	s.Run(0)
}

func TestSignalBroadcast(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	woke := 0
	for i := 0; i < 3; i++ {
		s.Spawn("w", func(p *Proc) {
			p.Wait(sg)
			woke++
		})
	}
	s.After(10*Microsecond, sg.Fire)
	s.Run(0)
	if woke != 3 {
		t.Fatalf("woke = %d, want 3", woke)
	}
}

func TestResourceContention(t *testing.T) {
	s := New(1)
	r := NewResource(s, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Spawn("worker", func(p *Proc) {
			r.Use(p, 10*Microsecond)
			ends = append(ends, p.Now())
		})
	}
	s.Run(0)
	// Two run [0,10µs], two queue and run [10µs,20µs].
	want := []Time{Time(10 * Microsecond), Time(10 * Microsecond), Time(20 * Microsecond), Time(20 * Microsecond)}
	if len(ends) != len(want) {
		t.Fatalf("ends = %v", ends)
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	// 40µs of busy over 20µs × 2 capacity: fully utilized.
	if got := r.BusyTime(); got != 40*Microsecond {
		t.Fatalf("BusyTime = %v, want 40µs", got)
	}
}

func TestResourceFIFO(t *testing.T) {
	s := New(1)
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("w", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Microsecond)
			r.Release()
		})
	}
	s.Run(0)
	for i := 0; i < 5; i++ {
		if order[i] != i {
			t.Fatalf("acquire order = %v, want FIFO", order)
		}
	}
}

func TestReleaseIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Release of idle resource did not panic")
		}
	}()
	s := New(1)
	NewResource(s, 1).Release()
}

func TestManyProcsDeterministic(t *testing.T) {
	run := func() Time {
		s := New(7)
		r := NewResource(s, 3)
		for i := 0; i < 50; i++ {
			s.Spawn("w", func(p *Proc) {
				for j := 0; j < 5; j++ {
					r.Use(p, time.Duration(1+s.Rand().Intn(10))*Microsecond)
				}
			})
		}
		return s.Run(0)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic end times: %v vs %v", a, b)
	}
}

func TestWaitTimeoutSignalFirst(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	var fired bool
	var at Time
	s.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(sg, 100*Microsecond)
		at = p.Now()
	})
	s.After(10*Microsecond, sg.Fire)
	s.Run(0)
	if !fired {
		t.Fatal("signal did not win the race")
	}
	if at != Time(10*Microsecond) {
		t.Fatalf("woke at %v, want 10µs", at)
	}
	// The loser (timer) must not fire later: run on and ensure no panic
	// from double-dispatch and no pending events.
	if s.Pending() != 0 {
		t.Fatalf("pending events after race: %d", s.Pending())
	}
}

func TestWaitTimeoutTimeoutFirst(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	var fired bool
	var at Time
	s.Spawn("w", func(p *Proc) {
		fired = p.WaitTimeout(sg, 5*Microsecond)
		at = p.Now()
	})
	// Signal fires AFTER the timeout: must be a no-op for this waiter.
	s.After(50*Microsecond, sg.Fire)
	s.Run(0)
	if fired {
		t.Fatal("timeout should have won")
	}
	if at != Time(5*Microsecond) {
		t.Fatalf("woke at %v, want 5µs", at)
	}
}

func TestWaitTimeoutRepeated(t *testing.T) {
	// The retransmit-until-ack pattern: loop WaitTimeout until a condition.
	s := New(1)
	sg := NewSignal(s)
	done := false
	s.After(95*Microsecond, func() { done = true; sg.Fire() })
	attempts := 0
	var end Time
	s.Spawn("rpc", func(p *Proc) {
		for !done {
			attempts++
			p.WaitTimeout(sg, 30*Microsecond)
		}
		end = p.Now()
	})
	s.Run(0)
	if attempts != 4 { // 30, 60, 90, then signal at 95
		t.Fatalf("attempts = %d, want 4", attempts)
	}
	if end != Time(95*Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

// TestWaitTimeoutKeepsOneTimer: a process whose signal wins wait after wait
// keeps its one wait timer as a weak event instead of stopping it, so no
// event is cancelled; the wait the signal does not end still times out
// exactly at its own deadline; and a run whose last strong event was a won
// wait ends there, with the weak timer unfired.
func TestWaitTimeoutKeepsOneTimer(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	for i := 1; i <= 5; i++ {
		s.At(Time(i)*Time(10*Microsecond), sg.Fire)
	}
	var woke []Time
	var timedOut Time
	s.Spawn("w", func(p *Proc) {
		for p.WaitTimeout(sg, 30*Microsecond) {
			woke = append(woke, p.Now())
		}
		timedOut = p.Now()
	})
	s.Run(0)
	if len(woke) != 5 || woke[4] != Time(50*Microsecond) {
		t.Fatalf("signal wakes at %v, want five, the last at 50µs", woke)
	}
	if timedOut != Time(80*Microsecond) {
		t.Fatalf("timed out at %v, want 80µs (the last wait's own deadline)", timedOut)
	}
	if st := s.Stats(); st.Cancelled != 0 {
		t.Fatalf("%d events cancelled, want 0: a won wait stopped its timer", st.Cancelled)
	}

	s = New(1)
	sg = NewSignal(s)
	s.At(Time(10*Microsecond), sg.Fire)
	s.Spawn("w", func(p *Proc) { p.WaitTimeout(sg, 30*Microsecond) })
	if end := s.Run(0); end != Time(10*Microsecond) || s.Stats().Cancelled != 0 {
		t.Fatalf("run ended at %v with %d events cancelled, want 10µs and none", end, s.Stats().Cancelled)
	}
}

// TestCloseUnwindsUnfinishedProcs covers the three states Close meets — a
// process that never started, one parked mid-body and one that finished —
// on a standalone simulation and on a shard group's root and lanes: every
// goroutine exits, the parked bodies' deferred calls run once each in spawn
// order, and a second Close is a no-op.
func TestCloseUnwindsUnfinishedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	var unwound []string
	populate := func(s *Simulation, name string) {
		s.Spawn("finished", func(p *Proc) {})
		s.Spawn("parked", func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			p.Wait(NewSignal(s)) // never fired
			t.Error("parked process resumed")
		})
	}
	unstarted := func(s *Simulation) {
		s.Spawn("unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	}

	alone := New(2)
	populate(alone, "alone")
	alone.Run(0)
	unstarted(alone)
	alone.Close()
	alone.Close()

	root := New(1)
	g := NewShardGroup(root, 2, Microsecond)
	populate(root, "root")
	populate(g.Lane(0), "lane0")
	populate(g.Lane(1), "lane1")
	root.Run(0)
	unstarted(root)
	unstarted(g.Lane(1))
	root.Close()
	root.Close()

	if got, want := fmt.Sprint(unwound), "[alone root lane0 lane1]"; got != want {
		t.Fatalf("unwound %s, want %s", got, want)
	}
	// A lane worker has seen its start channel close slightly before it is gone.
	for i := 0; runtime.NumGoroutine() > before && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
}

// TestCloseParkedStates covers the parked states TestCloseUnwindsUnfinishedProcs
// does not: a process parked in WaitTimeout (two wakers outstanding), and one
// whose deferred call spawns another process while Close is unwinding it —
// the late spawn is closed by the same Close and its body never runs.
func TestCloseParkedStates(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	var unwound []string
	s.Spawn("timeout", func(p *Proc) {
		defer func() { unwound = append(unwound, "timeout") }()
		p.WaitTimeout(NewSignal(s), time.Second)
		t.Error("process parked in WaitTimeout resumed")
	})
	s.Spawn("spawner", func(p *Proc) {
		defer func() {
			unwound = append(unwound, "spawner")
			s.Spawn("late", func(p *Proc) { t.Error("process spawned during Close ran") })
		}()
		p.Sleep(time.Second)
		t.Error("sleeping process resumed")
	})
	s.Run(s.Now().Add(time.Millisecond))
	s.Close()
	if got, want := fmt.Sprint(unwound), "[timeout spawner]"; got != want {
		t.Fatalf("unwound %s, want %s", got, want)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after Close", before, n)
	}
}

// TestSpawnCloseCyclesLeakNoGoroutines: a coroutine is a goroutine to the
// runtime, so every spawned process must be gone once Close returns,
// whichever state Close found it in.
func TestSpawnCloseCyclesLeakNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		s := New(int64(i))
		s.Spawn("parked", func(p *Proc) { p.Sleep(time.Second) })
		s.Spawn("finished", func(p *Proc) {})
		s.Run(s.Now().Add(time.Millisecond))
		s.Spawn("unstarted", func(p *Proc) {})
		s.Close()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after 10000 spawn/close cycles", before, n)
	}
}

// runRecovering runs s to quiescence and returns the value Run panicked
// with, nil if it returned.
func runRecovering(s *Simulation) (panicked any) {
	defer func() { panicked = recover() }()
	s.Run(0)
	return nil
}

// TestProcPanicSurfacesFromRun: a panic in a process body — at its start or
// after it has parked and been resumed — unwinds Run on the caller's
// goroutine with the original value, where a test or fuzz target can recover
// it; the simulation can still be closed afterwards.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	boom := errors.New("boom")
	for _, sleep := range []time.Duration{0, Microsecond} {
		s := New(1)
		s.Spawn("bystander", func(p *Proc) { p.Sleep(time.Second) })
		s.Spawn("faulty", func(p *Proc) {
			p.Sleep(sleep)
			panic(boom)
		})
		if got := runRecovering(s); got != boom {
			t.Fatalf("sleep %v: Run panicked with %v, want %v", sleep, got, boom)
		}
		s.Close()
	}
}

// TestBlockOutsideOwnBodyPanics: a blocking call on p from an event callback
// or from another process's body names p instead of hanging.
func TestBlockOutsideOwnBodyPanics(t *testing.T) {
	cases := map[string]func(s *Simulation, victim *Proc){
		"event callback": func(s *Simulation, victim *Proc) {
			s.After(Microsecond, func() { victim.Sleep(Microsecond) })
		},
		"another process": func(s *Simulation, victim *Proc) {
			s.Spawn("intruder", func(p *Proc) { victim.Wait(NewSignal(s)) })
		},
	}
	for name, misuse := range cases {
		s := New(1)
		victim := s.Spawn("victim", func(p *Proc) { p.Sleep(time.Second) })
		misuse(s, victim)
		got := runRecovering(s)
		if msg, _ := got.(string); !strings.Contains(msg, "proc victim blocked outside its own body") {
			t.Errorf("%s: Run panicked with %v, want a message naming proc victim", name, got)
		}
		s.Close()
	}
}

// TestSignalWaitSteadyStateAllocs pins Fire keeping its waiter slice: a
// process that waits on the same signal over and over allocates nothing per
// wait, and a fired closure is not kept reachable by the spare capacity.
func TestSignalWaitSteadyStateAllocs(t *testing.T) {
	s := New(1)
	sg := NewSignal(s)
	s.Spawn("waiter", func(p *Proc) {
		for {
			p.Wait(sg)
		}
	})
	defer s.Close()
	fire := sg.Fire // bound once: a fresh method value would be the test's allocation
	cycle := func() {
		s.After(Nanosecond, fire)
		s.Run(0)
	}
	for i := 0; i < 64; i++ {
		cycle() // warm up the event store
	}
	if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
		t.Fatalf("steady-state Wait+Fire allocates %.2f objects/op, want 0", avg)
	}
	sg.subscribeFrom(s, func() {})
	sg.Fire()
	if w := sg.waiters[:1][0]; w.fn != nil || w.home != nil {
		t.Fatalf("Fire left a fired waiter in the spare capacity: %+v", w)
	}
}
