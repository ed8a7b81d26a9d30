// Package metrics exercises the telemetrynames analyzer against the
// DESIGN.md inventory that sits next to it.
package metrics

import "repro/internal/telemetry"

func register(reg *telemetry.Registry) {
	reg.Counter("demo.frames_total")      // documented: fine
	reg.Gauge("demo.queue_depth")         // documented: fine
	reg.Histogram("demo.latency_ns")      // documented: fine
	reg.Counter("BadName")                // want `telemetrynames: metric "BadName" is not documented in DESIGN\.md`
	reg.Counter("demo.not_in_design")     // want `telemetrynames: metric "demo\.not_in_design" is not documented in DESIGN\.md`
	reg.Counter("demo.after_section")     // want `telemetrynames: metric "demo\.after_section" is not documented in DESIGN\.md`
	reg.GaugeFunc("demo.Mixed_Case", nil) // want `telemetrynames: metric "demo\.Mixed_Case" is not documented in DESIGN\.md`
	reg.Counter("demo.prose_only")        // want `telemetrynames: metric "demo\.prose_only" is not documented in DESIGN\.md`

	name := "demo.dynamic"
	reg.Counter(name) // non-literal names are out of scope by design
}

type fake struct{}

func (fake) Counter(string) {}

func notARegistry(f fake) {
	f.Counter("Whatever.Shape") // not telemetry.Registry: ignored
}
