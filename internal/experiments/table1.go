package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/stats"
	"repro/internal/workload"
)

// table1 replays each corpus stand-in through the full ASK stack and
// reports how much the switch absorbs (Table 1): the fraction of
// switch-eligible tuples aggregated in-network, and the fraction of data
// packets fully absorbed (switch-ACKed). Long keys bypass the switch by
// design (§3.2.3) and are reported separately.
func table1(quick bool) (*stats.Table, error) {
	// Tuples per dataset (scaled from the paper's full corpus replays).
	tuples := int64(1_500_000)
	if quick {
		tuples = 120_000
	}
	t := &stats.Table{
		Title:  "Table 1: traffic reduction on production-corpus stand-ins",
		Note:   fmt.Sprintf("%d tuples per dataset; ratios over switch-eligible traffic", tuples),
		Header: []string{"dataset", "aggregated tuples %", "switch-ACKed packets %", "long-key bypass %"},
	}
	for _, name := range workload.DatasetNames() {
		spec := workload.Dataset(name, tuples, seed)
		res, cl, err := runAggregation(ask.Options{Hosts: 2, Seed: seed}, singleSenderTask(spec, 0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sw := res.Switch
		long := float64(cl.Daemon(1).Stats().LongTuplesSent) / float64(tuples)
		t.AddRow(name,
			100*sw.AggregatedTupleRatio(),
			100*sw.AckedPacketRatio(),
			100*long)
	}
	return t, nil
}
