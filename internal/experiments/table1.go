package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Table1Config parameterizes the traffic-reduction measurement on the
// production-corpus stand-ins (Table 1).
type Table1Config struct {
	// Tuples per dataset (scaled from the paper's full corpus replays).
	Tuples int64
}

// DefaultTable1 is the benchmark-scale preset.
func DefaultTable1() Table1Config { return Table1Config{Tuples: 1_500_000} }

// QuickTable1 is the test-scale preset.
func QuickTable1() Table1Config { return Table1Config{Tuples: 120_000} }

// Table1 replays each corpus stand-in through the full ASK stack and
// reports how much the switch absorbs: the fraction of switch-eligible
// tuples aggregated in-network, and the fraction of data packets fully
// absorbed (switch-ACKed). Long keys bypass the switch by design (§3.2.3)
// and are reported separately.
func Table1(cfg Table1Config) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Table 1: traffic reduction on production-corpus stand-ins",
		Note:   fmt.Sprintf("%d tuples per dataset; ratios over switch-eligible traffic", cfg.Tuples),
		Header: []string{"dataset", "aggregated tuples %", "switch-ACKed packets %", "long-key bypass %"},
	}
	for _, name := range workload.DatasetNames() {
		spec := workload.Dataset(name, cfg.Tuples, seed)
		res, cl, err := runAggregation(ask.Options{Hosts: 2, Seed: seed}, singleSenderTask(spec, 0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sw := res.Switch
		long := float64(cl.Daemon(1).Stats().LongTuplesSent) / float64(cfg.Tuples)
		t.AddRow(name,
			100*sw.AggregatedTupleRatio(),
			100*sw.AckedPacketRatio(),
			100*long)
	}
	return t, nil
}
