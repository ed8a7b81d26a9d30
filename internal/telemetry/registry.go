package telemetry

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" dimension of an instrument.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

var (
	// Metric names are component.snake_case with at least two segments, so
	// every instrument is attributable to a layer (switchd.swaps, not swaps).
	nameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)
	keyRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// fullName renders name{k1="v1",k2="v2"} with label keys sorted, the
// canonical identity of an instrument. It allocates the string and nothing
// else: label indices are insertion-sorted on the stack, and each value is
// quoted as %q quotes it (strconv.Quote) into a stack buffer.
func fullName(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var order [8]int
	idx := order[:0]
	for i := range labels {
		j := len(idx)
		idx = append(idx, i)
		for ; j > 0 && labels[idx[j-1]].Key > labels[i].Key; j-- {
			idx[j] = idx[j-1]
		}
		idx[j] = i
	}
	var buf [128]byte
	b := append(append(buf[:0], name...), '{')
	for n, i := range idx {
		if n > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(append(append(b, labels[i].Key...), '='), labels[i].Value)
	}
	return string(append(b, '}'))
}

func checkName(name string, labels []Label) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("telemetry: metric name %q is not component.snake_case", name))
	}
	for _, l := range labels {
		if !keyRE.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: label key %q on %q is not snake_case", l.Key, name))
		}
	}
}

// Counter is a monotonically increasing integer. A nil Counter is a
// no-op; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (d must be >= 0 for the exported value to stay monotonic;
// this is not enforced on the hot path).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous integer value. A nil Gauge is a no-op.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) {
	if g != nil {
		g.v.Add(d)
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry owns every instrument of one deployment. Instrument lookup is
// mutex-guarded and idempotent — the same (name, labels) always returns
// the same instrument — while instrument updates are lock-free atomics.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	gaugeFuncs map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		hists:      make(map[string]*Histogram),
		gaugeFuncs: make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name+labels, creating it
// on first use. Panics if the name violates the component.snake_case
// convention or collides with another instrument kind.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	checkName(name, labels)
	key := fullName(name, labels)
	r.mu.RLock()
	c := r.counters[key]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[key]; c != nil {
		return c
	}
	r.checkKindLocked(key, "counter")
	c = &Counter{}
	r.counters[key] = c
	return c
}

// Gauge returns the gauge registered under name+labels, creating it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	checkName(name, labels)
	key := fullName(name, labels)
	r.mu.RLock()
	g := r.gauges[key]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[key]; g != nil {
		return g
	}
	r.checkKindLocked(key, "gauge")
	g = &Gauge{}
	r.gauges[key] = g
	return g
}

// Histogram returns the log-linear histogram registered under
// name+labels, creating it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	checkName(name, labels)
	key := fullName(name, labels)
	r.mu.RLock()
	h := r.hists[key]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[key]; h != nil {
		return h
	}
	r.checkKindLocked(key, "histogram")
	h = newHistogram()
	r.hists[key] = h
	return h
}

// GaugeFunc registers a callback gauge: fn is polled at sample and export
// time, so instrumenting an existing counter (e.g. pisa pipeline passes)
// costs nothing on the hot path. fn runs on the simulation goroutine.
// Re-registering the same name replaces the callback.
func (r *Registry) GaugeFunc(name string, fn func() int64, labels ...Label) {
	checkName(name, labels)
	key := fullName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.gaugeFuncs[key]; !dup {
		r.checkKindLocked(key, "gaugefunc")
	}
	r.gaugeFuncs[key] = fn
}

func (r *Registry) checkKindLocked(key, kind string) {
	if _, ok := r.counters[key]; ok && kind != "counter" {
		panic(fmt.Sprintf("telemetry: %q already registered as a counter", key))
	}
	if _, ok := r.gauges[key]; ok && kind != "gauge" {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge", key))
	}
	if _, ok := r.hists[key]; ok && kind != "histogram" {
		panic(fmt.Sprintf("telemetry: %q already registered as a histogram", key))
	}
	if _, ok := r.gaugeFuncs[key]; ok && kind != "gaugefunc" {
		panic(fmt.Sprintf("telemetry: %q already registered as a gauge func", key))
	}
}

// CounterValues returns the current value of every counter, keyed by full
// name.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, len(r.counters))
	for k, c := range r.counters {
		out[k] = c.Value()
	}
	return out
}

// GaugeValues returns the current value of every gauge and gauge func,
// keyed by full name. Callback gauges are polled; call only from the
// simulation goroutine.
func (r *Registry) GaugeValues() map[string]int64 {
	r.mu.RLock()
	fns := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, fn := range r.gaugeFuncs {
		fns[k] = fn
	}
	out := make(map[string]int64, len(r.gauges)+len(fns))
	for k, g := range r.gauges {
		out[k] = g.Value()
	}
	r.mu.RUnlock()
	for k, fn := range fns {
		out[k] = fn()
	}
	return out
}

// histSnapshots returns a snapshot of every histogram, keyed by full name.
func (r *Registry) histSnapshots() map[string]HistSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(r.hists))
	for k, h := range r.hists {
		out[k] = h.Snapshot()
	}
	return out
}

// matches reports whether full name key belongs to base metric name
// (exact match, or base followed by a label block).
func matches(key, base string) bool {
	return key == base || (strings.HasPrefix(key, base) && key[len(base)] == '{')
}

// Total sums every counter whose base name is base across all label
// combinations — e.g. Total("hostd.replays_sent") over all hosts.
func (r *Registry) Total(base string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var t int64
	for k, c := range r.counters {
		if matches(k, base) {
			t += c.Value()
		}
	}
	return t
}

// Max returns the maximum value of every counter or gauge whose base name
// is base across all label combinations — e.g. the worst per-host
// degraded time.
func (r *Registry) Max(base string) int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var m int64
	for k, c := range r.counters {
		if matches(k, base) && c.Value() > m {
			m = c.Value()
		}
	}
	for k, g := range r.gauges {
		if matches(k, base) && g.Value() > m {
			m = g.Value()
		}
	}
	return m
}
