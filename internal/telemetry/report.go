package telemetry

import (
	"fmt"
	"sort"

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
	for _, kv := range sortedInt64(r.CounterValues()) {
		t.AddRow(kv.k, "counter", kv.v)
	}
	for _, kv := range sortedInt64(r.GaugeValues()) {
		t.AddRow(kv.k, "gauge", kv.v)
	}
	hists := r.histSnapshots()
	keys := make([]string, 0, len(hists))
	for k := range hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.mu.RLock()
	hs := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		hs[k] = h
	}
	r.mu.RUnlock()
	for _, k := range keys {
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

type int64kv struct {
	k string
	v int64
}

func sortedInt64(m map[string]int64) []int64kv {
	out := make([]int64kv, 0, len(m))
	for k, v := range m {
		out = append(out, int64kv{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].k < out[j].k })
	return out
}
