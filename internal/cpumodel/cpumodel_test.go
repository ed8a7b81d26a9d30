package cpumodel

import (
	"testing"
	"time"

	"repro/internal/sim"
)

func TestExecConsumesCPU(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, 2)
	var endA, endB, endC sim.Time
	s.Spawn("a", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond); endA = p.Now() })
	s.Spawn("b", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond); endB = p.Now() })
	s.Spawn("c", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond); endC = p.Now() })
	s.Run(0)
	if endA != sim.Time(10*time.Microsecond) || endB != sim.Time(10*time.Microsecond) {
		t.Fatalf("parallel execs ended at %v/%v", endA, endB)
	}
	if endC != sim.Time(20*time.Microsecond) {
		t.Fatalf("queued exec ended at %v, want 20µs", endC)
	}
	if got := h.BusyTime(); got != 30*time.Microsecond {
		t.Fatalf("BusyTime = %v", got)
	}
}

func TestUtilization(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, 4)
	s.Spawn("w", func(p *sim.Proc) { h.Exec(p, 10*time.Microsecond) })
	s.Run(0)
	// 1 core busy 10µs of 4 cores × 10µs = 25%.
	if u := float64(h.BusyTime()) / (4 * float64(s.Now())); u < 0.249 || u > 0.251 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestThreadRun(t *testing.T) {
	s := sim.New(1)
	h := NewHost(s, 1)
	th := h.NewThread()
	var end sim.Time
	s.Spawn("t", func(p *sim.Proc) {
		th.Run(p, 5*time.Microsecond)
		th.Run(p, 5*time.Microsecond)
		end = p.Now()
	})
	s.Run(0)
	if end != sim.Time(10*time.Microsecond) {
		t.Fatalf("end = %v", end)
	}
}

func TestSparkAggregateRateCalibration(t *testing.T) {
	// The calibration targets from Fig. 3(a): ≈7 M AKV/s at 4 cores,
	// saturating near ≈43 M at 56 cores, with clearly sublinear scaling.
	r4, r16, r56 := SparkAggregateRate(4), SparkAggregateRate(16), SparkAggregateRate(56)
	if r4 < 6e6 || r4 > 9e6 {
		t.Fatalf("rate(4) = %.2e, want ~7.2e6", r4)
	}
	if r56 < 40e6 || r56 > 48e6 {
		t.Fatalf("rate(56) = %.2e, want ~43e6", r56)
	}
	if !(r4 < r16 && r16 < r56) {
		t.Fatal("rate not monotonic in cores")
	}
	// Sublinear: 56 cores must be well under 14× the 4-core rate.
	if r56/r4 > 8 {
		t.Fatalf("scaling %f× looks linear; shared cost not applied", r56/r4)
	}
}
