package telemetry

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/sim"
)

// Component identifies the layer emitting a trace event.
type Component uint8

const (
	CompSim Component = iota
	CompPisa
	CompSwitchd
	CompHostd
	CompWindow
	CompNetsim
	CompChaos
)

var compNames = [...]string{
	CompSim:     "sim",
	CompPisa:    "pisa",
	CompSwitchd: "switchd",
	CompHostd:   "hostd",
	CompWindow:  "window",
	CompNetsim:  "netsim",
	CompChaos:   "chaos",
}

// String renders the component's name.
func (c Component) String() string { return compNames[c] }

// MarshalText lets events JSON-encode with readable component names.
func (c Component) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText reads a component back from its name, so a snapshot holding
// events decodes.
func (c *Component) UnmarshalText(b []byte) error {
	i := slices.Index(compNames[:], string(b))
	if i < 0 {
		return fmt.Errorf("telemetry: unknown component %q", b)
	}
	*c = Component(i)
	return nil
}

// Event is one structured trace record. A and B are event-specific
// numeric arguments (documented per Kind in DESIGN.md); Note is optional
// free text for events that need it (e.g. chaos injection descriptions).
type Event struct {
	At   sim.Time  `json:"at_ns"`
	Comp Component `json:"comp"`
	Kind string    `json:"kind"`
	Task int64     `json:"task,omitempty"`
	A    int64     `json:"a,omitempty"`
	B    int64     `json:"b,omitempty"`
	Note string    `json:"note,omitempty"`
}

// Tracer keeps the most recent events from every component in a fixed
// ring; a nil Tracer ignores everything. Emit is safe for concurrent use so
// -race tests can hammer components from multiple goroutines.
type Tracer struct {
	clock func() sim.Time

	mu      sync.Mutex
	ring    []Event
	next    int   // next write position
	wrapped bool  // ring has been overwritten at least once
	dropped int64 // events overwritten
}

// NewTracer builds a tracer holding the last capacity (> 0) events,
// timestamped via clock (usually Simulation.Now).
func NewTracer(clock func() sim.Time, capacity int) *Tracer {
	return &Tracer{clock: clock, ring: make([]Event, capacity)}
}

// Emit records an event with numeric arguments.
func (t *Tracer) Emit(comp Component, kind string, task, a, b int64) {
	t.emit(Event{Comp: comp, Kind: kind, Task: task, A: a, B: b})
}

// EmitNote records an event carrying free text.
func (t *Tracer) EmitNote(comp Component, kind string, task int64, note string) {
	t.emit(Event{Comp: comp, Kind: kind, Task: task, Note: note})
}

func (t *Tracer) emit(e Event) {
	if t == nil {
		return
	}
	e.At = t.clock()
	t.mu.Lock()
	if t.wrapped {
		t.dropped++
	}
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapped = true
	}
	t.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		return append([]Event(nil), t.ring[:t.next]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Dropped returns how many events were overwritten after the ring filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}
