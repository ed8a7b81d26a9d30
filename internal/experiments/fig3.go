package experiments

import (
	"repro/ask"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/stats"
	"repro/internal/workload"
)

const (
	// fig3Distinct keys; the strawman assumes all fit in switch memory
	// (§2.2.2 assumption 3), so the region is sized to hold them.
	fig3Distinct = 2048
)

// fig3 measures aggregated key-value tuples per second on a single machine
// for the three systems of Fig. 3: vanilla Spark vs. the strawman
// single-tuple INA vs. full multi-key ASK. Spark's curve is the calibrated
// analytical model (cpumodel.SparkAggregateRate); the strawman and ASK
// curves are measured on the simulated data path.
func fig3(quick bool) (*stats.Table, error) {
	// The stream length (paper: enough to saturate; scaled) and the x-axis:
	// CPU cores devoted to aggregation. For the INA systems, cores map to
	// data channels (one DPDK thread per channel).
	tuples, coreCounts := int64(2_000_000), []int{1, 2, 4, 8, 16}
	if quick {
		tuples, coreCounts = 150_000, []int{1, 4}
	}
	t := &stats.Table{
		Title:  "Fig. 3: single-machine aggregation throughput (AKV/s)",
		Note:   "strawman = 1 tuple/packet INA (§2.2.2); ASK = 32-slot multi-key packets",
		Header: []string{"cores", "Spark AKV/s", "Strawman AKV/s", "ASK AKV/s", "ASK/Spark"},
	}
	for _, cores := range coreCounts {
		spark := cpumodel.SparkAggregateRate(cores)

		straw, err := fig3Run(tuples, cores, true)
		if err != nil {
			return nil, err
		}
		full, err := fig3Run(tuples, cores, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(cores, spark, straw, full, full/spark)
	}
	return t, nil
}

// fig3Run measures one INA configuration at a core count. The strawman's
// single-tuple packets make a run 32× more packet-events than ASK's, so it
// measures a proportionally shorter stream (AKV/s is a rate; both systems
// run long past pipeline fill).
func fig3Run(tuples int64, cores int, strawman bool) (float64, error) {
	c := microConfig()
	c.DataChannels = cores
	if strawman {
		// One tuple slot per packet, every key resident.
		c.NumAAs = 1
	}
	// Maximal per-task regions: the paper's microbenchmark assumes every
	// key fits an aggregator (§2.2.2), so rows are sized to keep row-hash
	// collisions negligible.
	rows := (c.AARows / cores) &^ 1
	if strawman {
		tuples /= 8
	}
	// One task per data channel: cores channels aggregate in parallel.
	_, elapsed, err := runParallelTasks(
		ask.Options{Hosts: 1, Config: c, Seed: seed},
		cores, rows,
		[]core.HostID{0}, 0,
		func(task int, _ core.HostID) workload.Spec {
			return balancedUniformRows(shortLayout(c.NumAAs), fig3Distinct, tuples/int64(cores), seed+int64(task), rows)
		})
	if err != nil {
		return 0, err
	}
	return akvPerSec(tuples/int64(cores)*int64(cores), elapsed), nil
}
