// Package scenario is the trace-driven workload engine: it turns
// composable temporal arrival processes (Poisson, MMPP bursts, multi-period
// diurnal profiles), time-varying Zipf popularity with hot-key churn and
// cardinality growth, and correlated burst groups into timed key-value
// streams (core.TimedStream). Every stream is seed-deterministic: the same
// Scenario value always produces a byte-identical trace, which is what the
// committed corpus (corpus.go), the replay golden tests, and the scenario
// sweep experiment rely on.
//
// A Scenario records to the versioned trace format via
// workload.WriteTimedTrace (cmd/askgen -scenario) and replays through the
// full protocol stack via ask.Job.SendTimed (cmd/asksim -replay).
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// Burst overlays correlated burst groups on the base arrival process: burst
// events arrive as a Poisson process of their own, and each one injects a
// tightly spaced group of tuples drawn from one narrow, randomly anchored
// key range — the "correlated flash on a key neighborhood" pattern (many
// users hitting one shard of the keyspace at once).
type Burst struct {
	Rate float64       // bursts per second of stream time
	Size int           // tuples per burst
	Gap  time.Duration // spacing between tuples inside a burst
	Span int           // width of the correlated key group
}

func (b Burst) String() string {
	return fmt.Sprintf("burst(%.3g/s×%d@%v,span=%d)", b.Rate, b.Size, b.Gap, b.Span)
}

// Scenario is one named, fully parameterized timed workload.
type Scenario struct {
	// Name is the registry key; Desc one line for listings.
	Name string
	Desc string
	// Stressor states which subsystem the shape is designed to load
	// (documentation, EXPERIMENTS.md corpus table).
	Stressor string

	// Arrival is the temporal process; Keys the popularity process; Burst
	// an optional correlated-burst overlay.
	Arrival Arrival
	Keys    ZipfChurn
	Burst   *Burst

	// Tuples is the stream length; Seed drives every RNG stream.
	Tuples int64
	Seed   int64

	// LongTail shifts the key-length distribution up (0 = English-like;
	// see workload.NaturalLanguage).
	LongTail int
	// ValRange, when positive, draws values uniformly from [1, ValRange];
	// zero emits the WordCount constant 1.
	ValRange int64
}

// Sub-stream salts: each concern gets an independent deterministic RNG so
// e.g. adding drift to the key model cannot perturb arrival times.
const (
	saltArrival = 0x5bd1e995
	saltKeys    = 0x9e3779b9
	saltBurst   = 0x85ebca6b
	saltValues  = 0xc2b2ae35
)

func (s Scenario) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(s.Seed*0x100000001b3 + salt))
}

// WithTuples returns a copy with a different stream length (benchmarks
// scale the corpus shapes up without redefining them).
func (s Scenario) WithTuples(n int64) Scenario {
	s.Tuples = n
	return s
}

// WithSeed returns a copy with a different seed.
func (s Scenario) WithSeed(seed int64) Scenario {
	s.Seed = seed
	return s
}

// TimedStream returns a fresh deterministic timed iterator over the
// scenario: Tuples arrivals in non-decreasing time order, keys named by the
// rank-correlated length model.
func (s Scenario) TimedStream() core.TimedStream {
	if s.Tuples < 0 || s.Arrival == nil {
		panic(fmt.Sprintf("scenario: invalid scenario %+v", s))
	}
	clock := s.Arrival.Clock(s.rng(saltArrival))
	picker := s.Keys.Picker(s.rng(saltKeys))
	var burstRNG *rand.Rand
	if s.Burst != nil {
		burstRNG = s.rng(saltBurst)
	}
	var valRNG *rand.Rand
	if s.ValRange > 0 {
		valRNG = s.rng(saltValues)
	}
	lens := workload.NaturalLanguage(s.LongTail)
	// Key-string cache, index-addressed like workload.Spec.Stream's: hot
	// indices dominate, and "" never names a real key.
	cache := make([]string, s.Keys.MaxKeys())
	key := func(idx int) string {
		if w := cache[idx]; w != "" {
			return w
		}
		w := workload.Word(idx, lens)
		cache[idx] = w
		return w
	}
	value := func() int64 {
		if valRNG == nil {
			return 1
		}
		return 1 + valRNG.Int63n(s.ValRange)
	}

	var emitted int64
	var now time.Duration // time of the last base-process arrival
	// Pending burst state: burstLeft tuples remain, spaced Burst.Gap from
	// burstAt, keys in [burstAnchor, burstAnchor+Span).
	var nextBurst time.Duration = -1
	if s.Burst != nil {
		nextBurst = expDur(burstRNG, s.Burst.Rate)
	}
	var burstAt time.Duration
	var burstLeft, burstAnchor int
	maxKeys := s.Keys.MaxKeys()

	return func() (core.TimedKV, bool) {
		if emitted >= s.Tuples {
			return core.TimedKV{}, false
		}
		emitted++
		// Drain an active burst first: its tuples are the earliest pending
		// arrivals by construction (they trail burstAt by at most Size·Gap,
		// and the next base arrival was pushed past it below).
		if burstLeft > 0 {
			at := burstAt
			burstAt += s.Burst.Gap
			burstLeft--
			idx := burstAnchor + burstRNG.Intn(s.Burst.Span)
			if idx >= maxKeys {
				idx = maxKeys - 1
			}
			return core.TimedKV{KV: core.KV{Key: key(idx), Val: value()}, At: at}, true
		}
		next := now + clock(now)
		if nextBurst >= 0 && nextBurst <= next {
			// A burst fires before the next base arrival: anchor a key
			// group and start draining. Base time resumes at the burst's
			// end (bursts add load on top of the base process), and the
			// next burst cannot start before this one finishes — both keep
			// the emitted arrival sequence non-decreasing.
			burstAt = nextBurst
			burstLeft = s.Burst.Size
			span := s.Burst.Span
			if span < 1 {
				span = 1
			}
			anchorMax := maxKeys - span
			if anchorMax < 1 {
				anchorMax = 1
			}
			burstAnchor = burstRNG.Intn(anchorMax)
			end := burstAt + s.Burst.Gap*time.Duration(s.Burst.Size-1)
			now = end
			nextBurst += expDur(burstRNG, s.Burst.Rate)
			if nextBurst < end {
				nextBurst = end
			}
			at := burstAt
			burstAt += s.Burst.Gap
			burstLeft--
			idx := burstAnchor + burstRNG.Intn(span)
			if idx >= maxKeys {
				idx = maxKeys - 1
			}
			return core.TimedKV{KV: core.KV{Key: key(idx), Val: value()}, At: at}, true
		}
		now = next
		return core.TimedKV{KV: core.KV{Key: key(picker(now)), Val: value()}, At: now}, true
	}
}

// Header returns the trace header recording this scenario's identity and
// generator parameters — what cmd/askgen stamps on recorded traces.
func (s Scenario) Header() workload.TraceHeader {
	meta := map[string]string{
		"arrival": s.Arrival.String(),
		"keys":    s.Keys.String(),
	}
	if s.Burst != nil {
		meta["burst"] = s.Burst.String()
	}
	if s.Stressor != "" {
		meta["stressor"] = s.Stressor
	}
	return workload.TraceHeader{
		Scenario: s.Name,
		Seed:     s.Seed,
		Meta:     meta,
	}
}
