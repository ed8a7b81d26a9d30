package scenario

import (
	"fmt"
	"sort"
	"time"
)

// The committed scenario corpus: named, seed-pinned workload shapes that
// the performance and chaos measurements run against. Rates are scaled
// to the simulator's virtual-time regime — megatuples per second against
// the 100 Gbps rack — so a corpus stream spans tens of milliseconds of
// virtual time; "diurnal" periods are scaled-down stand-ins for daily and
// intra-day cycles, not literal days.
//
// Changing a scenario's parameters (or the generator's sampling code)
// changes its byte-exact trace, which the determinism and round-trip tests
// lock; bump the scenario's Seed when a deliberate change is wanted so the
// shift is visible in review.

// All lists the corpus in a stable order (the registry).
func All() []Scenario {
	return []Scenario{
		{
			Name:     "steady-poisson",
			Desc:     "constant-rate Poisson arrivals, static Zipf popularity",
			Stressor: "baseline shape: steady-state AA hit rate and packing",
			Arrival:  Poisson{Rate: 2e6},
			Keys:     ZipfChurn{Distinct: 8192, Skew: 1.1},
			Tuples:   24_000,
			Seed:     601,
		},
		{
			Name:     "flash-crowd",
			Desc:     "MMPP: quiet baseline punctuated by 25× rate flash bursts",
			Stressor: "burst absorption: window backpressure, TX-ring drain, retransmits",
			Arrival: MMPP{Phases: []Phase{
				{Rate: 2e5, Dwell: 12 * time.Millisecond},
				{Rate: 5e6, Dwell: 3 * time.Millisecond},
			}},
			Keys:   ZipfChurn{Distinct: 12_000, Skew: 1.2},
			Tuples: 24_000,
			Seed:   602,
		},
		{
			Name:     "diurnal-two-period",
			Desc:     "two superimposed sinusoidal rate cycles (day + intra-day)",
			Stressor: "pacing: partial-packet flush in troughs, queue growth at peaks",
			Arrival: Diurnal{Base: 1.5e6, Harmonics: []Harmonic{
				{Period: 12 * time.Millisecond, Amp: 0.8},
				{Period: 3 * time.Millisecond, Amp: 0.4, Phase: 1.3},
			}},
			Keys:   ZipfChurn{Distinct: 8192, Skew: 1.1},
			Tuples: 24_000,
			Seed:   603,
		},
		{
			Name:     "hot-rotate",
			Desc:     "Zipf hot set rotates by a large step every 2.5 ms",
			Stressor: "shadow-copy swaps: promoted hot keys invalidated in jumps",
			Arrival:  Poisson{Rate: 2e6},
			Keys: ZipfChurn{
				Distinct: 8192, Skew: 1.3,
				RotatePeriod: 2500 * time.Microsecond, RotateWindow: 1024, RotateStep: 257,
			},
			Tuples: 24_000,
			Seed:   604,
		},
		{
			Name:     "hot-drift",
			Desc:     "popularity drifts continuously via random hot↔tail rank swaps",
			Stressor: "gradual churn: AA residency decays instead of flipping",
			Arrival:  Poisson{Rate: 2e6},
			Keys:     ZipfChurn{Distinct: 8192, Skew: 1.1, DriftRate: 5e4},
			Tuples:   24_000,
			Seed:     605,
		},
		{
			Name:     "antagonist-flip",
			Desc:     "two hot populations swap places every 4 ms (square wave)",
			Stressor: "promotion thrash: each flip devalues the promoted set at once",
			Arrival:  Poisson{Rate: 1.5e6},
			Keys: ZipfChurn{
				Distinct: 8192, Skew: 1.4,
				RotatePeriod: 4 * time.Millisecond, RotateWindow: 512, RotateStep: 256,
			},
			Tuples: 24_000,
			Seed:   606,
		},
		{
			Name:     "cardinality-ramp",
			Desc:     "vocabulary grows 256 → ~12k keys over the stream's life",
			Stressor: "keyspace growth: slot-fill imbalance and first-touch misses",
			Arrival:  Poisson{Rate: 2e6},
			Keys: ZipfChurn{
				Distinct: 256, MaxDistinct: 32_768, GrowthPerSec: 1e6,
			},
			Tuples: 24_000,
			Seed:   607,
		},
		{
			Name:     "cold-uniform-sweep",
			Desc:     "uniform popularity over a 120k-key vocabulary",
			Stressor: "worst-case AA hit rate: almost every tuple is a cold miss",
			Arrival:  Poisson{Rate: 1e6},
			Keys:     ZipfChurn{Distinct: 120_000},
			Tuples:   24_000,
			Seed:     608,
		},
		{
			Name:     "burst-correlated",
			Desc:     "Poisson baseline plus correlated 64-tuple bursts on narrow key groups",
			Stressor: "correlated incast: one key neighborhood flash-loads its slots",
			Arrival:  Poisson{Rate: 8e5},
			Keys:     ZipfChurn{Distinct: 12_000, Skew: 1.2},
			Burst:    &Burst{Rate: 2000, Size: 64, Gap: 200 * time.Nanosecond, Span: 16},
			Tuples:   24_000,
			Seed:     609,
		},
		{
			Name:     "heavy-tail-churn",
			Desc:     "bursty MMPP arrivals, heavy-tailed Zipf(1.5), drifting ranks, long keys",
			Stressor: "combined stress: bursts + churn + long-tail key lengths",
			Arrival: MMPP{Phases: []Phase{
				{Rate: 5e5, Dwell: 8 * time.Millisecond},
				{Rate: 3e6, Dwell: 2 * time.Millisecond},
			}},
			Keys:     ZipfChurn{Distinct: 30_000, Skew: 1.5, DriftRate: 2e4},
			Tuples:   24_000,
			Seed:     610,
			LongTail: 2,
			ValRange: 1000,
		},
		{
			Name:     "trickle",
			Desc:     "sparse low-rate arrivals with long idle gaps",
			Stressor: "pacing floor: lull flushes dominate, packets go out mostly blank",
			Arrival:  Poisson{Rate: 5e4},
			Keys:     ZipfChurn{Distinct: 4096, Skew: 1.1},
			Tuples:   4_000,
			Seed:     611,
		},
		{
			Name:     "mixed-diurnal-growth",
			Desc:     "diurnal rate cycles over a growing, drifting vocabulary",
			Stressor: "everything at once: the soak shape for long-running scale PRs",
			Arrival: Diurnal{Base: 1.2e6, Harmonics: []Harmonic{
				{Period: 14 * time.Millisecond, Amp: 0.7},
				{Period: 3 * time.Millisecond, Amp: 0.3, Phase: 0.7},
			}},
			Keys: ZipfChurn{
				Distinct: 4096, MaxDistinct: 32_768, GrowthPerSec: 1.5e6,
				Skew: 1.15, DriftRate: 1e4,
			},
			Burst:    &Burst{Rate: 800, Size: 48, Gap: 250 * time.Nanosecond, Span: 24},
			Tuples:   24_000,
			Seed:     612,
			ValRange: 100,
		},
	}
}

// Names lists the corpus scenario names in registry order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// ByName finds a corpus scenario.
func ByName(name string) (Scenario, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	names := Names()
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, names)
}
