package telemetry

import (
	"maps"
	"slices"
	"time"

	"repro/internal/sim"
)

// Point is one sampled value of a gauge at a virtual instant.
type Point struct {
	At sim.Time `json:"at_ns"`
	V  int64    `json:"v"`
}

// Sampler periodically snapshots every gauge (and gauge func) of a
// registry into per-gauge time series on the virtual clock. Because the
// clock is deterministic, two runs with equal seeds produce identical
// series — the substrate for the paper's occupancy-over-time figures.
//
// The sampler self-reschedules with sim.After, so it must be stopped when
// the workload completes or Simulation.Run(0) would never quiesce;
// ask.Cluster starts it with the first task and stops it with the last.
type Sampler struct {
	s        *sim.Simulation
	reg      *Registry
	interval time.Duration
	max      int

	running bool
	timer   sim.Timer
	series  map[string][]Point
}

// DefaultSampleInterval is a cluster's gauge sampling period (virtual).
const DefaultSampleInterval = 100 * time.Microsecond

// defaultMaxSamples bounds a runaway series; at the default interval this
// covers 10 virtual seconds, far beyond any experiment in the repo.
const defaultMaxSamples = 100_000

// NewSampler builds a sampler over reg ticking every interval.
func NewSampler(s *sim.Simulation, reg *Registry, interval time.Duration) *Sampler {
	return &Sampler{s: s, reg: reg, interval: interval, max: defaultMaxSamples, series: make(map[string][]Point)}
}

// Start begins sampling: one snapshot now, then one per interval.
// Starting a running sampler is a no-op, so overlapping tasks share one
// cadence. A nil Sampler ignores Start.
func (sp *Sampler) Start() {
	if sp == nil || sp.running {
		return
	}
	sp.running = true
	sp.tick()
}

// Stop cancels the pending tick and takes one final snapshot, so series
// always cover the full task interval. A nil Sampler ignores Stop.
func (sp *Sampler) Stop() {
	if sp == nil || !sp.running {
		return
	}
	sp.timer.Stop()
	sp.running = false
	sp.sample()
}

func (sp *Sampler) tick() {
	sp.sample()
	if sp.count() >= sp.max {
		sp.running = false
		return
	}
	sp.timer = sp.s.After(sp.interval, sp.tick)
}

func (sp *Sampler) sample() {
	now := sp.s.Now()
	vals := sp.reg.GaugeValues()
	for _, k := range slices.Sorted(maps.Keys(vals)) {
		pts := sp.series[k]
		// Collapse same-instant duplicates (Stop immediately after a tick).
		if n := len(pts); n > 0 && pts[n-1].At == now {
			pts[n-1].V = vals[k]
		} else {
			pts = append(pts, Point{At: now, V: vals[k]})
		}
		sp.series[k] = pts
	}
}

func (sp *Sampler) count() int {
	n := 0
	for _, pts := range sp.series {
		if len(pts) > n {
			n = len(pts)
		}
	}
	return n
}

// AllSeries returns every sampled series keyed by full gauge name.
func (sp *Sampler) AllSeries() map[string][]Point {
	if sp == nil {
		return nil
	}
	return sp.series
}
