package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.After(3*Microsecond, func() { order = append(order, 3) })
	s.After(1*Microsecond, func() { order = append(order, 1) })
	s.After(2*Microsecond, func() { order = append(order, 2) })
	s.Run(0)
	want := []int{1, 2, 3}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if got := s.Now(); got != Time(3*Microsecond) {
		t.Fatalf("Now() = %v, want 3µs", got)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*Microsecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	hits := 0
	s.After(time.Microsecond, func() {
		hits++
		s.After(time.Microsecond, func() {
			hits++
			s.After(time.Microsecond, func() { hits++ })
		})
	})
	s.Run(0)
	if hits != 3 {
		t.Fatalf("hits = %d, want 3", hits)
	}
	if s.Now() != Time(3*Microsecond) {
		t.Fatalf("Now() = %v, want 3µs", s.Now())
	}
}

func TestRunLimit(t *testing.T) {
	s := New(1)
	ran := false
	s.After(10*Millisecond, func() { ran = true })
	end := s.Run(Time(time.Millisecond))
	if ran {
		t.Fatal("event past limit ran")
	}
	if end != Time(time.Millisecond) {
		t.Fatalf("end = %v, want 1ms", end)
	}
	// Resume: event should still run.
	s.Run(0)
	if !ran {
		t.Fatal("event did not run after resume")
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.After(time.Microsecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.Run(0)
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New(1)
	s.After(time.Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(0, func() {})
	})
	s.Run(0)
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		s := New(42)
		var out []int64
		var step func()
		step = func() {
			out = append(out, int64(s.Now()), s.Rand().Int63n(1000))
			if len(out) < 40 {
				s.After(time.Duration(1+s.Rand().Intn(100))*Microsecond, step)
			}
		}
		s.After(time.Microsecond, step)
		s.Run(0)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	s := New(1)
	t1 := s.After(time.Microsecond, func() {})
	s.After(2*time.Microsecond, func() {})
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	t1.Stop()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after stop = %d, want 1", got)
	}
}
