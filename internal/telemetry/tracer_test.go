package telemetry

import (
	"testing"

	"repro/internal/sim"
)

func fixedClock() sim.Time { return 42 }

// TestTracerWraparound fills the ring past capacity and checks the retained
// window is the most recent events in oldest-first order.
func TestTracerWraparound(t *testing.T) {
	const cap = 8
	tr := NewTracer(fixedClock, cap)
	for i := 0; i < 2*cap+3; i++ {
		tr.Emit(CompSwitchd, "e", int64(i), 0, 0)
	}
	evs := tr.Events()
	if len(evs) != cap {
		t.Fatalf("retained %d events, want %d", len(evs), cap)
	}
	// The last 2*cap+3 emits kept events (cap+3)..(2*cap+2).
	for i, e := range evs {
		want := int64(cap + 3 + i)
		if e.Task != want {
			t.Fatalf("event %d: task %d, want %d (not oldest-first after wrap)", i, e.Task, want)
		}
	}
	if got := tr.Dropped(); got != cap+3 {
		t.Fatalf("dropped = %d, want %d", got, cap+3)
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(fixedClock, 16)
	tr.Emit(CompHostd, "a", 1, 2, 3)
	tr.EmitNote(CompChaos, "inject", 0, "link down")
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != "a" || evs[0].A != 2 || evs[0].B != 3 || evs[0].At != 42 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Note != "link down" || evs[1].Comp != CompChaos {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if tr.Dropped() != 0 {
		t.Fatal("no drops expected before wrap")
	}
}

func TestTracerNil(t *testing.T) {
	var tr *Tracer
	tr.Emit(CompSim, "x", 0, 0, 0)
	tr.EmitNote(CompSim, "x", 0, "n")
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
}

func TestComponentString(t *testing.T) {
	if got := CompHostd.String(); got != "hostd" {
		t.Fatalf("String = %q", got)
	}
	b, err := CompChaos.MarshalText()
	if err != nil || string(b) != "chaos" {
		t.Fatalf("MarshalText = %q, %v", b, err)
	}
}
