package telemetry

import (
	"encoding/json"
	"io"
)

// Snapshot is the JSON export shape: every instrument, the sampled
// series, and the retained trace events.
type Snapshot struct {
	Counters      map[string]int64        `json:"counters,omitempty"`
	Gauges        map[string]int64        `json:"gauges,omitempty"`
	Histograms    map[string]HistSnapshot `json:"histograms,omitempty"`
	Series        map[string][]Point      `json:"series,omitempty"`
	Events        []Event                 `json:"events,omitempty"`
	DroppedEvents int64                   `json:"dropped_events,omitempty"`
}

// TakeSnapshot captures the full state of a telemetry set. Nil-safe.
func (ts *Set) TakeSnapshot() Snapshot {
	if ts == nil {
		return Snapshot{}
	}
	return Snapshot{
		Counters:      ts.Registry.CounterValues(),
		Gauges:        ts.Registry.GaugeValues(),
		Histograms:    ts.Registry.histSnapshots(),
		Series:        ts.Sampler.AllSeries(),
		Events:        ts.Tracer.Events(),
		DroppedEvents: ts.Tracer.Dropped(),
	}
}

// WriteJSON writes an indented, key-sorted JSON snapshot.
func (ts *Set) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(ts.TakeSnapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
