package telemetry

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// runSampled is one deterministic workload: a proc steps a gauge on the
// virtual clock while the sampler ticks, the sampler is stopped at a fixed
// instant, and the run must quiesce (Run returns ⇒ no pending timers).
func runSampled(seed int64) map[string][]Point {
	s := sim.New(seed)
	reg := NewRegistry()
	g := reg.Gauge("test.level")
	reg.GaugeFunc("test.doubled", func() int64 { return 2 * g.Value() })
	sp := NewSampler(s, reg, 70*time.Microsecond)
	s.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			g.Set(int64(i * i))
			p.Sleep(100 * time.Microsecond)
		}
	})
	sp.Start()
	s.At(sim.Time(0).Add(1500*time.Microsecond), sp.Stop)
	s.Run(0)
	return sp.AllSeries()
}

// TestSamplerDeterministic: two identical seeded runs produce byte-identical
// series (the property the paper's occupancy-over-time figures rely on).
func TestSamplerDeterministic(t *testing.T) {
	a := runSampled(7)
	b := runSampled(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical seeded runs produced different series")
	}
	lv := a[`test.level`]
	if len(lv) == 0 {
		t.Fatal("no samples for test.level")
	}
	// Stop at 1.5ms adds a final snapshot; the series must cover the stop
	// instant and be strictly time-ordered.
	if last := lv[len(lv)-1].At; last != sim.Time(0).Add(1500*time.Microsecond) {
		t.Fatalf("final sample at %v, want the Stop instant", last)
	}
	for i := 1; i < len(lv); i++ {
		if lv[i].At <= lv[i-1].At {
			t.Fatalf("series not strictly ordered at %d: %v <= %v", i, lv[i].At, lv[i-1].At)
		}
	}
	// The callback gauge samples in lockstep with the stored gauge.
	dv := a[`test.doubled`]
	if len(dv) != len(lv) {
		t.Fatalf("gauge func series length %d != gauge series length %d", len(dv), len(lv))
	}
	for i := range lv {
		if dv[i].V != 2*lv[i].V {
			t.Fatalf("sample %d: doubled=%d level=%d", i, dv[i].V, lv[i].V)
		}
	}
}

// TestSamplerStopQuiesces: Run(0) returning after Stop proves the pending
// tick was cancelled — the property ask.Cluster depends on.
func TestSamplerStopQuiesces(t *testing.T) {
	s := sim.New(1)
	reg := NewRegistry()
	reg.Gauge("test.level").Set(1)
	sp := NewSampler(s, reg, 50*time.Microsecond)
	sp.Start()
	if !sp.running {
		t.Fatal("sampler should run after Start")
	}
	s.At(sim.Time(0).Add(200*time.Microsecond), sp.Stop)
	end := s.Run(0)
	if sp.running {
		t.Fatal("sampler should stop after Stop")
	}
	if end != sim.Time(0).Add(200*time.Microsecond) {
		t.Fatalf("simulation quiesced at %v, want the Stop instant", end)
	}
	// Restarting resumes sampling on the same series.
	sp.Start()
	s.At(sim.Time(0).Add(400*time.Microsecond), sp.Stop)
	s.Run(0)
	pts := sp.AllSeries()["test.level"]
	if len(pts) < 2 {
		t.Fatalf("series too short after restart: %d", len(pts))
	}
}

func TestSamplerNil(t *testing.T) {
	var sp *Sampler
	sp.Start()
	sp.Stop()
	if sp.AllSeries() != nil {
		t.Fatal("nil sampler must be inert")
	}
}
