package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig9Config parameterizes the hot-key prioritization study (Fig. 9): the
// fraction of tuples the switch aggregates as a function of the
// aggregator-to-distinct-key ratio, with and without the shadow-copy
// mechanism, on Zipf (hot-first), Zipf (reverse), and Uniform streams.
type Fig9Config struct {
	// Distinct is the distinct-key count (paper: 2¹⁶; scaled so keys stay
	// 4-byte short keys for the all-short layout).
	Distinct int
	// Tuples is the stream length (paper: ~10⁸; scaled).
	Tuples int64
	// Ratios sweeps total aggregators / distinct keys.
	Ratios []float64
	// SwapThreshold is the receiver packet count that triggers a swap.
	SwapThreshold int
}

const (
	// fig9Skew is the Zipf exponent.
	fig9Skew = 1.05
)

// DefaultFig9 is the benchmark-scale preset.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		Distinct:      8192,
		Tuples:        700_000,
		Ratios:        []float64{1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1},
		SwapThreshold: 128,
	}
}

// QuickFig9 is the test-scale preset.
func QuickFig9() Fig9Config {
	return Fig9Config{
		Distinct:      2048,
		Tuples:        150_000,
		Ratios:        []float64{1.0 / 16, 1},
		SwapThreshold: 64,
	}
}

// fig9AAs is the AA count for this experiment: an all-short-key layout so
// "total aggregators" maps cleanly to AAs × rows.
const fig9AAs = 8

// Fig9 runs the sweep. Each cell is the percentage of switch-eligible
// tuples aggregated in-network.
func Fig9(cfg Fig9Config) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Fig. 9: switch-aggregated tuples vs aggregator:distinct-key ratio",
		Note: fmt.Sprintf("%d distinct keys, %d tuples, swap threshold %d packets",
			cfg.Distinct, cfg.Tuples, cfg.SwapThreshold),
		Header: []string{"agg/keys", "Zipf%", "Zipf(rev)%", "Uniform%",
			"Zipf%+prio", "Zipf(rev)%+prio", "Uniform%+prio"},
	}
	orders := []workload.Spec{
		workload.Zipf(cfg.Distinct, cfg.Tuples, fig9Skew, workload.HotFirst, seed),
		workload.Zipf(cfg.Distinct, cfg.Tuples, fig9Skew, workload.ColdFirst, seed),
		workload.Uniform(cfg.Distinct, cfg.Tuples, seed),
	}
	for _, ratio := range cfg.Ratios {
		aggs := int(ratio * float64(cfg.Distinct))
		rows := aggs / fig9AAs
		if rows < 2 {
			rows = 2
		}
		rows &^= 1 // even for the two shadow copies
		cells := []any{fmt.Sprintf("1/%d", int(1/ratio+0.5))}
		if ratio >= 1 {
			cells[0] = "1"
		}
		for _, prio := range []bool{false, true} {
			for _, spec := range orders {
				pct, err := fig9Run(cfg, spec, rows, prio)
				if err != nil {
					return nil, fmt.Errorf("ratio %v %s prio=%v: %w", ratio, spec.Name, prio, err)
				}
				cells = append(cells, pct)
			}
		}
		t.AddRow(cells...)
	}
	return t, nil
}

func fig9Run(cfg Fig9Config, spec workload.Spec, rows int, prio bool) (float64, error) {
	c := microConfig()
	c.NumAAs = fig9AAs
	if prio {
		c.SwapThreshold = cfg.SwapThreshold
	}
	res, _, err := runAggregation(ask.Options{Hosts: 2, Config: c, Seed: seed}, singleSenderTask(spec, rows))
	if err != nil {
		return 0, err
	}
	return 100 * res.Switch.AggregatedTupleRatio(), nil
}
