package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// weakAt schedules a weak event at t that appends its name to order.
func weakAt(s *Simulation, t Time, name string, order *[]string) Timer {
	tm := s.At(t, func() { *order = append(*order, name) })
	tm.SetWeak(true)
	return tm
}

// TestRunEndsAtLastStrongEvent: Run(0) and Run(limit) return once every
// queued event is weak, without firing one, with the clock at the last event
// fired; the weak events stay queued, and a later strong event lets them fire
// in their places.
func TestRunEndsAtLastStrongEvent(t *testing.T) {
	for _, limit := range []Time{0, 100} {
		s := New(1)
		var order []string
		weak := weakAt(s, 50, "weak@50", &order)
		s.At(20, func() { order = append(order, "strong@20") })
		if end := s.Run(limit); end != 20 || fmt.Sprint(order) != "[strong@20]" {
			t.Fatalf("Run(%v) ended at %v having run %v, want 20 and [strong@20]", limit, end, order)
		}
		if !weak.Pending() || s.Pending() != 0 {
			t.Fatalf("Run(%v): weak timer pending %v, Pending() = %d; want true, 0", limit, weak.Pending(), s.Pending())
		}
		s.At(60, func() { order = append(order, "strong@60") })
		if end := s.Run(0); end != 60 || fmt.Sprint(order) != "[strong@20 weak@50 strong@60]" {
			t.Fatalf("second Run ended at %v having run %v", end, order)
		}
	}
}

// TestWeakEventFiresInItsPlace: a weak event that precedes a strong one fires
// in its (time, seq) place — after a strong event at its instant queued
// before it, before one queued after it.
func TestWeakEventFiresInItsPlace(t *testing.T) {
	s := New(1)
	var order []string
	s.At(10, func() { order = append(order, "strong@10a") })
	weakAt(s, 10, "weak@10", &order)
	s.At(10, func() { order = append(order, "strong@10b") })
	weakAt(s, 5, "weak@5", &order)
	s.At(30, func() { order = append(order, "strong@30") })
	weakAt(s, 30, "weak@30", &order)
	if end := s.Run(0); end != 30 {
		t.Fatalf("Run ended at %v, want 30", end)
	}
	if got, want := fmt.Sprint(order), "[weak@5 strong@10a weak@10 strong@10b strong@30]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}

// TestSetWeakFalseKeepsRunGoing: a timer marked weak and then strong again
// keeps the run going until it fires, as a timer never marked does; marking
// an inert timer is a no-op.
func TestSetWeakFalseKeepsRunGoing(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.At(40, func() { fired = true })
	tm.SetWeak(true)
	tm.SetWeak(true) // idempotent: the weak count stays exact
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d with one weak timer, want 0", s.Pending())
	}
	tm.SetWeak(false)
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after SetWeak(false), want 1", s.Pending())
	}
	if end := s.Run(0); end != 40 || !fired {
		t.Fatalf("Run ended at %v, fired %v; want 40, true", end, fired)
	}
	tm.SetWeak(true) // fired: inert
	s.At(50, func() {})
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after marking a fired timer, want 1", s.Pending())
	}
}

// TestStopWeakTimerKeepsPendingRight: stopping a weak timer, and firing or
// reaping weak events, keep Pending (strong events only) exact, so a run ends
// where its strong events do however its weak ones came and went.
func TestStopWeakTimerKeepsPendingRight(t *testing.T) {
	s := New(1)
	var order []string
	a := weakAt(s, 10, "a", &order)
	b := weakAt(s, 20, "b", &order)
	strong := s.At(30, func() { order = append(order, "strong") })
	if !a.Stop() || a.Stop() {
		t.Fatal("Stop of a weak timer did not report exactly one cancellation")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after stopping a weak timer, want 1", s.Pending())
	}
	b.SetWeak(false)
	b.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d after stopping a re-strengthened timer, want 1", s.Pending())
	}
	weakAt(s, 25, "c", &order)
	if end := s.Run(0); end != 30 || fmt.Sprint(order) != "[c strong]" || s.Pending() != 0 || strong.Pending() {
		t.Fatalf("Run ended at %v having run %v, Pending() %d", end, order, s.Pending())
	}
	// Slots recycled from weak events carry no weakness to their next occupant.
	for i := 0; i < 4; i++ {
		s.At(s.Now()+1, func() {})
	}
	if s.Pending() != 4 {
		t.Fatalf("Pending() = %d for four fresh events on recycled slots, want 4", s.Pending())
	}
}

// weakEvent is one event of TestShardGroupEndsAtSerialClock's schedules.
type weakEvent struct {
	lane int
	at   Time
	weak bool
}

// runWeakSchedule runs evs on one standalone simulation (lanes < 1) or on a
// group of lanes, with a 1 µs lookahead, and returns what each lane ran and
// the final clock.
func runWeakSchedule(evs []weakEvent, lanes int) ([][]string, Time) {
	root := New(1)
	sims := []*Simulation{root, root}
	if lanes > 0 {
		g := NewShardGroup(root, lanes, time.Microsecond)
		sims = []*Simulation{g.Lane(0), g.Lane(1)}
	}
	ran := make([][]string, 2)
	for _, ev := range evs {
		ev := ev
		s := sims[ev.lane]
		tm := s.At(ev.at, func() { ran[ev.lane] = append(ran[ev.lane], fmt.Sprintf("%v/%v", ev.at, ev.weak)) })
		tm.SetWeak(ev.weak)
	}
	end := root.Run(0)
	return ran, end
}

// TestShardGroupEndsAtSerialClock: a shard group runs exactly the weak events
// the serial kernel does and ends at the serial final clock — a lane whose own
// strong events are done leaves a weak one for the merge to decide, in a
// parallel window (lane 0 below) and in the next window (lane 1).
func TestShardGroupEndsAtSerialClock(t *testing.T) {
	const us = Time(Microsecond)
	for _, evs := range [][]weakEvent{
		// Parallel window [1, 2) µs: lane 0 runs out of strong events before
		// its weak one at 1.5, lane 1's strong one at 1.2 is the last.
		{{0, us, false}, {0, us + us/2, true}, {1, us + us/5, false}},
		// Lane 1 holds only weak events: the one at 2.2 precedes lane 0's last
		// strong event and fires, the one at 2.8 does not.
		{{0, us, false}, {0, 2*us + us/2, false}, {1, 2*us + us/5, true}, {1, 2*us + 4*us/5, true}},
		// Only weak events: nothing runs, the clock stays at 0.
		{{0, us, true}, {1, 2 * us, true}},
	} {
		wantRan, wantEnd := runWeakSchedule(evs, 0)
		gotRan, gotEnd := runWeakSchedule(evs, 2)
		if gotEnd != wantEnd || !reflect.DeepEqual(gotRan, wantRan) {
			t.Errorf("schedule %v: group ran %v and ended at %v; serial ran %v and ended at %v",
				evs, gotRan, gotEnd, wantRan, wantEnd)
		}
	}
}

// TestInPlaceStartRule: InPlace reports true exactly when nothing live is
// queued at or before now in a serial run, so code that starts
// its body inline when it does, and schedules it at now when it does not,
// runs the body where an event at now would have run: after every event
// already queued at now.
func TestInPlaceStartRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(s *Simulation) // queues what an event at now (5) meets
		want  bool
	}{
		{"nothing queued", func(*Simulation) {}, true},
		{"event later", func(s *Simulation) { s.At(6, func() {}) }, true},
		{"event at now", func(s *Simulation) { s.At(5, func() {}) }, false},
		{"weak event at now", func(s *Simulation) { s.At(5, func() {}).SetWeak(true) }, false},
		{"stopped timer at now", func(s *Simulation) { s.At(5, func() {}).Stop() }, true},
	} {
		s := New(1)
		got := !tc.want
		s.At(5, func() {
			tc.setup(s)
			got = s.InPlace()
		})
		s.Run(0)
		if got != tc.want {
			t.Errorf("%s: InPlace() = %v, want %v", tc.name, got, tc.want)
		}
	}
	if New(1).InPlace() {
		t.Error("InPlace outside Run reported true")
	}

	// The order: a start that finds an event queued at now runs after it; one
	// that finds none runs inline, in the event that starts it.
	s := New(1)
	var order []string
	start := func(name string) {
		body := func() { order = append(order, fmt.Sprintf("%s@%d", name, s.Now())) }
		if s.InPlace() {
			body()
		} else {
			s.At(s.Now(), body)
		}
	}
	s.At(5, func() {
		s.At(5, func() { order = append(order, "queued@5") })
		start("deferred")
	})
	s.At(9, func() { start("inline") })
	s.At(12, func() { order = append(order, "later@12") })
	s.Run(0)
	if got, want := fmt.Sprint(order), "[queued@5 deferred@5 inline@9 later@12]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
	// Fired: the three scheduled events, queued@5 and the deferred start;
	// the inline start is no event.
	if got := s.Stats().Fired; got != 5 {
		t.Fatalf("%d events fired, want 5", got)
	}
}
