package experiments

import (
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// ScenariosConfig parameterizes the scenario-corpus sweep: every named
// workload shape in the committed corpus replayed through the full stack on
// the sim clock (timed streams), one cluster per scenario.
type ScenariosConfig struct {
	// Senders splits each scenario's stream round-robin across this many
	// sending hosts.
	Senders int
	// Tuples, when positive, overrides each scenario's stream length (the
	// quick preset scales the corpus down without redefining it).
	Tuples int64
	// Swap is the shadow-copy swap threshold (packets between promotion
	// rounds). The corpus streams are much shorter than the paper's full
	// replays, so the sweep lowers it below DefaultConfig's to keep the
	// promotion machinery exercised at this scale.
	Swap int
	// Rows caps the switch region rows (even, for the shadow copies). The
	// default layout holds every corpus vocabulary outright; capping rows
	// keeps aggregators scarce so hit rate and promotions respond to the
	// shapes' churn.
	Rows int
	// Names restricts the sweep to these scenarios (empty = whole corpus).
	Names []string
}

// DefaultScenarios is the benchmark-scale preset: the corpus as committed.
func DefaultScenarios() ScenariosConfig {
	return ScenariosConfig{Senders: 3, Swap: 256, Rows: 64}
}

// QuickScenarios is the test-scale preset.
func QuickScenarios() ScenariosConfig {
	return ScenariosConfig{Senders: 2, Tuples: 6_000, Swap: 64, Rows: 32}
}

// Scenarios sweeps the committed scenario corpus: each shape is generated
// from its seed, split across the senders, and replayed with arrival
// timestamps on the sim clock, so the cluster experiences the shape's
// temporal structure (bursts, lulls, diurnal cycles) rather than
// back-to-back pressure. Per shape it reports what the paper's steady-state
// figures cannot show: how the switch-AA hit rate, shadow-copy promotion
// churn, and goodput fraction respond to arrival dynamics and key churn.
func Scenarios(cfg ScenariosConfig) (*stats.Table, error) {
	corpus := scenario.All()
	if len(cfg.Names) > 0 {
		picked := make([]scenario.Scenario, 0, len(cfg.Names))
		for _, name := range cfg.Names {
			s, err := scenario.ByName(name)
			if err != nil {
				return nil, err
			}
			picked = append(picked, s)
		}
		corpus = picked
	}
	t := &stats.Table{
		Title:  "Scenario corpus: AA hit rate, promotions, goodput per workload shape",
		Note:   fmt.Sprintf("%d senders, timed replay on the sim clock; GF = goodput/wire bytes on sender uplinks", cfg.Senders),
		Header: []string{"scenario", "tuples", "AA hit %", "swaps", "GF %", "elapsed ms"},
	}
	for _, s := range corpus {
		if cfg.Tuples > 0 {
			s = s.WithTuples(cfg.Tuples)
		}
		tkvs := core.CollectTimed(s.TimedStream())
		parts := workload.SplitTimedRoundRobin(tkvs, cfg.Senders)

		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: cfg.Rows})
		for i, part := range parts {
			j.SendTimed(core.HostID(i+1), part)
		}

		conf := core.DefaultConfig()
		if cfg.Swap > 0 {
			conf.SwapThreshold = cfg.Swap
		}
		res, cl, err := runAggregation(ask.Options{Hosts: cfg.Senders + 1, Config: conf, Seed: s.Seed}, j)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}

		var wire, good int64
		for i := range parts {
			up := cl.Net.Uplink(core.HostID(i + 1)).Stats()
			wire += up.TxWireBytes
			good += up.TxGoodBytes
		}
		gf := 0.0
		if wire > 0 {
			gf = 100 * float64(good) / float64(wire)
		}
		t.AddRow(s.Name,
			int64(len(tkvs)),
			100*res.Switch.AggregatedTupleRatio(),
			cl.Switch.Stats().Swaps,
			gf,
			float64(time.Duration(res.Elapsed))/float64(time.Millisecond))
	}
	return t, nil
}
