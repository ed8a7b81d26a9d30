package experiments

import (
	"repro/ask"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig3Config parameterizes the single-machine AKV/s comparison (Fig. 3):
// vanilla Spark vs. the strawman single-tuple INA vs. full multi-key ASK.
type Fig3Config struct {
	// Tuples is the stream length (paper: enough to saturate; scaled).
	Tuples int64
	// Distinct keys; the strawman assumes all fit in switch memory (§2.2.2
	// assumption 3), so the region is sized to hold them.
	Distinct int
	// Cores is the x-axis: CPU cores devoted to aggregation. For the INA
	// systems, cores map to data channels (one DPDK thread per channel).
	Cores []int
	Seed  int64
}

// DefaultFig3 is the benchmark-scale preset.
func DefaultFig3() Fig3Config {
	return Fig3Config{Tuples: 2_000_000, Distinct: 2048, Cores: []int{1, 2, 4, 8, 16}, Seed: 1}
}

// QuickFig3 is the test-scale preset.
func QuickFig3() Fig3Config {
	return Fig3Config{Tuples: 150_000, Distinct: 2048, Cores: []int{1, 4}, Seed: 1}
}

// Fig3 measures aggregated key-value tuples per second on a single machine
// for the three systems of Fig. 3. Spark's curve is the calibrated
// analytical model (cpumodel.SparkAggregateRate); the strawman and ASK
// curves are measured on the simulated data path.
func Fig3(cfg Fig3Config) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 3: single-machine aggregation throughput (AKV/s)",
		Note:   "strawman = 1 tuple/packet INA (§2.2.2); ASK = 32-slot multi-key packets",
		Header: []string{"cores", "Spark AKV/s", "Strawman AKV/s", "ASK AKV/s", "ASK/Spark"},
	}
	for _, cores := range cfg.Cores {
		spark := cpumodel.SparkAggregateRate(cores)

		straw, err := fig3Run(cfg, cores, true)
		if err != nil {
			return nil, err
		}
		full, err := fig3Run(cfg, cores, false)
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
func fig3Run(cfg Fig3Config, cores int, strawman bool) (float64, error) {
	c := core.DefaultConfig()
	c.DataChannels = cores
	c.SwapThreshold = 0
	if strawman {
		// One tuple slot per packet, no medium groups, every key resident.
		c.NumAAs = 1
		c.MediumGroups = 0
		c.MediumSegs = 0
	} else {
		// All-short-key layout to match the 4-byte-key microbenchmark.
		c.MediumGroups = 0
		c.MediumSegs = 0
	}
	// Maximal per-task regions: the paper's microbenchmark assumes every
	// key fits an aggregator (§2.2.2), so rows are sized to keep row-hash
	// collisions negligible.
	rows := (c.AARows / cores) &^ 1
	tuples := cfg.Tuples
	if strawman {
		tuples /= 8
	}
	// One task per data channel: cores channels aggregate in parallel.
	_, elapsed, err := runParallelTasks(
		ask.Options{Hosts: 1, Config: c, Seed: cfg.Seed},
		cores, rows,
		[]core.HostID{0}, 0,
		func(task int, _ core.HostID) workload.Spec {
			return balancedUniformRows(shortLayout(c.NumAAs), cfg.Distinct, tuples/int64(cores), cfg.Seed+int64(task), rows)
		})
	if err != nil {
		return 0, err
	}
	return akvPerSec(tuples/int64(cores)*int64(cores), elapsed), nil
}
