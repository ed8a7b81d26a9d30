package telemetry

import "repro/internal/sim"

// Sink is the handle a component records through: a registry for
// instruments and a tracer for events. The zero Sink is valid and
// disables both.
type Sink struct {
	Reg *Registry
	Tr  *Tracer
}

// Set bundles the live telemetry of one cluster.
type Set struct {
	Registry *Registry
	Tracer   *Tracer
	Sampler  *Sampler
}

// NewSet builds the telemetry for one cluster: a registry, a 4096-event
// trace ring and a sampler ticking every DefaultSampleInterval while tasks
// are in flight. A disabled cluster holds a nil *Set, which is safe to use
// everywhere (Sink() returns a zero sink).
func NewSet(s *sim.Simulation) *Set {
	reg := NewRegistry()
	return &Set{
		Registry: reg,
		Tracer:   NewTracer(s.Now, 4096),
		Sampler:  NewSampler(s, reg, DefaultSampleInterval),
	}
}

// Sink returns the component-facing handle (zero Sink for nil sets).
func (ts *Set) Sink() Sink {
	if ts == nil {
		return Sink{}
	}
	return Sink{Reg: ts.Registry, Tr: ts.Tracer}
}
