package telemetry

import "repro/internal/sim"

// Sink is the handle a component records through: a registry for
// instruments and a tracer for events. The zero Sink is valid: the
// component counts on a private registry (Registry) and traces nothing,
// and instruments that only exporters read stay unregistered.
type Sink struct {
	Reg *Registry
	Tr  *Tracer
}

// Registry returns the registry a component counts on: the sink's, or for
// the zero Sink a private one, so the component's Stats views work with
// telemetry off.
func (s Sink) Registry() *Registry {
	if s.Reg == nil {
		return NewRegistry()
	}
	return s.Reg
}

// Set bundles the live telemetry of one cluster.
type Set struct {
	Registry *Registry
	Tracer   *Tracer
	Sampler  *Sampler
}

// NewSet builds the telemetry for one cluster: a registry, a 4096-event
// trace ring and a sampler ticking every DefaultSampleInterval while tasks
// are in flight. A disabled cluster holds a nil *Set, whose Sink is the
// zero Sink.
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
