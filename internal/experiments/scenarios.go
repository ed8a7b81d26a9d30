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

// scenarios sweeps the committed scenario corpus (names restricts it to
// those scenarios): each shape is generated from its seed, split across the
// senders, and replayed with arrival timestamps on the sim clock, one
// cluster per scenario, so the cluster experiences the shape's temporal
// structure (bursts, lulls, diurnal cycles) rather than back-to-back
// pressure. Per shape it reports what the paper's steady-state figures
// cannot show: how the switch-AA hit rate, shadow-copy promotion churn, and
// goodput fraction respond to arrival dynamics and key churn.
func scenarios(quick bool, names ...string) (*stats.Table, error) {
	// senders share each scenario's stream round-robin. tuples, when
	// positive, overrides each scenario's stream length (the full scale
	// replays the corpus as committed). swap is the shadow-copy swap
	// threshold: the corpus streams are much shorter than the paper's full
	// replays, so it sits below DefaultConfig's to keep promotions
	// exercised. rows caps the switch region (even, for the shadow copies)
	// so aggregators stay scarce and hit rate and promotions respond to the
	// shapes' churn.
	senders, tuples, swap, rows := 3, int64(0), 256, 64
	if quick {
		senders, tuples, swap, rows = 2, 6_000, 64, 32
	}
	corpus := scenario.All()
	if len(names) > 0 {
		picked := make([]scenario.Scenario, 0, len(names))
		for _, name := range names {
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
		Note:   fmt.Sprintf("%d senders, timed replay on the sim clock; GF = goodput/wire bytes on sender uplinks", senders),
		Header: []string{"scenario", "tuples", "AA hit %", "swaps", "GF %", "elapsed ms"},
	}
	for _, s := range corpus {
		if tuples > 0 {
			s = s.WithTuples(tuples)
		}
		tkvs := core.CollectTimed(s.TimedStream())
		parts := workload.SplitTimedRoundRobin(tkvs, senders)

		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: rows})
		for i, part := range parts {
			j.SendTimed(core.HostID(i+1), part)
		}

		conf := core.DefaultConfig()
		conf.SwapThreshold = swap
		res, cl, err := runAggregation(ask.Options{Hosts: senders + 1, Config: conf, Seed: s.Seed}, j)
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
