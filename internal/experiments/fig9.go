package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	// fig9Skew is the Zipf exponent.
	fig9Skew = 1.05
)

// fig9AAs is the AA count for this experiment: an all-short-key layout so
// "total aggregators" maps cleanly to AAs × rows.
const fig9AAs = 8

// fig9 is the hot-key prioritization study (Fig. 9): the fraction of
// tuples the switch aggregates as a function of the aggregator-to-distinct-key
// ratio, with and without the shadow-copy mechanism, on Zipf (hot-first),
// Zipf (reverse), and Uniform streams. Each cell is the percentage of
// switch-eligible tuples aggregated in-network.
func fig9(quick bool) (*stats.Table, error) {
	// The distinct-key count (paper: 2¹⁶; scaled so keys stay 4-byte short
	// keys for the all-short layout), the stream length (paper: ~10⁸;
	// scaled), the sweep of total aggregators / distinct keys, and the
	// receiver packet count that triggers a swap.
	distinct, tuples, swap := 8192, int64(700_000), 128
	ratios := []float64{1.0 / 256, 1.0 / 64, 1.0 / 16, 1.0 / 4, 1}
	if quick {
		distinct, tuples, swap = 2048, 150_000, 64
		ratios = []float64{1.0 / 16, 1}
	}
	t := &stats.Table{
		Title: "Fig. 9: switch-aggregated tuples vs aggregator:distinct-key ratio",
		Note: fmt.Sprintf("%d distinct keys, %d tuples, swap threshold %d packets",
			distinct, tuples, swap),
		Header: []string{"agg/keys", "Zipf%", "Zipf(rev)%", "Uniform%",
			"Zipf%+prio", "Zipf(rev)%+prio", "Uniform%+prio"},
	}
	orders := []workload.Spec{
		workload.Zipf(distinct, tuples, fig9Skew, workload.HotFirst, seed),
		workload.Zipf(distinct, tuples, fig9Skew, workload.ColdFirst, seed),
		workload.Uniform(distinct, tuples, seed),
	}
	for _, ratio := range ratios {
		aggs := int(ratio * float64(distinct))
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
				pct, err := fig9Run(spec, rows, prio, swap)
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

// fig9Run measures one cell: prio turns the shadow copies on at swap.
func fig9Run(spec workload.Spec, rows int, prio bool, swap int) (float64, error) {
	c := microConfig()
	c.NumAAs = fig9AAs
	if prio {
		c.SwapThreshold = swap
	}
	res, _, err := runAggregation(ask.Options{Hosts: 2, Config: c, Seed: seed}, singleSenderTask(spec, rows))
	if err != nil {
		return 0, err
	}
	return 100 * res.Switch.AggregatedTupleRatio(), nil
}
