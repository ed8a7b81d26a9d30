package telemetry

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/stats"
)

// Report renders the registry as a human table (built on internal/stats,
// like the experiment outputs): one row per counter and gauge, plus
// count/mean/p50/p99/max rows per histogram.
func Report(r *Registry) *stats.Table {
	t := &stats.Table{
		Title:  "Telemetry",
		Note:   "counters and gauges are instantaneous; histogram quantiles are bucket upper bounds",
		Header: []string{"metric", "kind", "value"},
	}
	if r == nil {
		return t
	}
	counters, gauges := r.CounterValues(), r.GaugeValues()
	for _, k := range slices.Sorted(maps.Keys(counters)) {
		t.AddRow(k, "counter", counters[k])
	}
	for _, k := range slices.Sorted(maps.Keys(gauges)) {
		t.AddRow(k, "gauge", gauges[k])
	}
	hists := r.histSnapshots()
	r.mu.RLock()
	hs := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hs[k] = h
	}
	r.mu.RUnlock()
	for _, k := range slices.Sorted(maps.Keys(hists)) {
		s := hists[k]
		h := hs[k]
		mean := "0"
		if s.Count > 0 {
			mean = fmt.Sprintf("%.1f", float64(s.Sum)/float64(s.Count))
		}
		t.AddRow(k, "histogram",
			fmt.Sprintf("n=%d mean=%s p50=%d p99=%d max=%d",
				s.Count, mean, h.Quantile(0.50), h.Quantile(0.99), h.Quantile(1)))
	}
	return t
}
