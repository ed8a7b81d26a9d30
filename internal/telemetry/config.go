package telemetry

import (
	"time"

	"repro/internal/sim"
)

// Config selects what a deployment records.
type Config struct {
	// Enabled turns on the registry, tracer, and sampler. When false the
	// cluster hands components a zero Sink and every instrument is nil —
	// recording calls are no-ops the inliner removes.
	Enabled bool
	// TraceCapacity bounds the event ring (default 4096).
	TraceCapacity int
	// SampleInterval is the gauge sampling period on the virtual clock
	// (default DefaultSampleInterval). Sampling runs only while tasks are
	// in flight.
	SampleInterval time.Duration
}

// Sink is the handle a component records through: a registry for
// instruments and a tracer for events. The zero Sink is valid and
// disables both.
type Sink struct {
	Reg *Registry
	Tr  *Tracer
}

// Enabled reports whether the sink records metrics.
func (sk Sink) Enabled() bool { return sk.Reg != nil }

// Set bundles the live telemetry of one cluster.
type Set struct {
	Registry *Registry
	Tracer   *Tracer
	Sampler  *Sampler
}

// NewSet builds the telemetry for one cluster. Returns nil when cfg is
// disabled; a nil *Set is safe to use everywhere (Sink() returns a zero
// sink).
func NewSet(s *sim.Simulation, cfg Config) *Set {
	if !cfg.Enabled {
		return nil
	}
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 4096
	}
	reg := NewRegistry()
	return &Set{
		Registry: reg,
		Tracer:   NewTracer(s.Now, cfg.TraceCapacity),
		Sampler:  NewSampler(s, reg, cfg.SampleInterval),
	}
}

// Sink returns the component-facing handle (zero Sink for nil sets).
func (ts *Set) Sink() Sink {
	if ts == nil {
		return Sink{}
	}
	return Sink{Reg: ts.Registry, Tr: ts.Tracer}
}
