package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/pisa"
	"repro/internal/stats"
	"repro/internal/switchd"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Fig8aConfig parameterizes the multi-key goodput sweep (Fig. 8(a)):
// goodput between two servers as a function of tuples per packet, against
// the ideal 8x/(8x+78)·100 Gbps curve.
type Fig8aConfig struct {
	// TuplesPerPacket is the x-axis (1..64; above 32 emulates chained
	// pipelines, §5.7.2, by extending the PISA stage budget).
	TuplesPerPacket []int
	// Tuples per measurement point.
	Tuples   int64
	Distinct int
	Seed     int64
}

// DefaultFig8a is the benchmark-scale preset.
func DefaultFig8a() Fig8aConfig {
	return Fig8aConfig{
		TuplesPerPacket: []int{1, 2, 4, 8, 16, 24, 32, 48, 64},
		Tuples:          4_000_000,
		Distinct:        8192,
		Seed:            1,
	}
}

// QuickFig8a is the test-scale preset.
func QuickFig8a() Fig8aConfig {
	return Fig8aConfig{TuplesPerPacket: []int{1, 8, 32}, Tuples: 4_000_000, Distinct: 2048, Seed: 1}
}

// Fig8a measures actual sender goodput per packet geometry and compares it
// with the theoretical ideal.
func Fig8a(cfg Fig8aConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 8(a): goodput vs key-value tuples per packet (4 data channels)",
		Note:   "ideal = 8x/(8x+78) × 100 Gbps; below 32 tuples the host PPS bounds goodput",
		Header: []string{"tuples/pkt", "measured Gbps", "ideal Gbps", "measured/ideal"},
	}
	for _, x := range cfg.TuplesPerPacket {
		c := core.DefaultConfig()
		c.NumAAs = x
		c.MediumGroups = 0
		c.MediumSegs = 0
		c.SwapThreshold = 0
		ch := c.DataChannels
		// Ample rows per task: conflicts would shift work to the receiver
		// and pollute the pure-goodput measurement.
		rows := (c.AARows / ch) &^ 1
		opts := ask.Options{Hosts: 2, Config: c, Seed: cfg.Seed}
		if x > 32 {
			// Chained pipelines: more stages available (§5.7.2).
			pc := pisa.DefaultConfig()
			pc.Stages = 3 + (x+3)/4 + 1
			opts.Switch = switchd.DefaultOptions()
			opts.Switch.Pipeline = pc
		}
		// One task per data channel (see runParallelTasks).
		cl, elapsed, err := runParallelTasks(opts, ch, rows, []core.HostID{1}, 0,
			func(task int, _ core.HostID) workload.Spec {
				return balancedUniformRows(shortLayout(x), cfg.Distinct, cfg.Tuples/int64(ch), cfg.Seed+int64(task), rows)
			})
		if err != nil {
			return nil, fmt.Errorf("x=%d: %w", x, err)
		}
		measured := stats.Gbps(cl.Net.Uplink(1).Stats().TxGoodBytes, elapsed)
		ideal := float64(8*x) / float64(8*x+wire.PerPacketOverhead) * 100
		t.AddRow(x, measured, ideal, measured/ideal)
	}
	return t, nil
}

// Fig8bConfig parameterizes the packet-fill CDF per dataset (Fig. 8(b)).
type Fig8bConfig struct {
	Tuples int64
	Seed   int64
}

// DefaultFig8b is the benchmark-scale preset.
func DefaultFig8b() Fig8bConfig { return Fig8bConfig{Tuples: 1_500_000, Seed: 1} }

// QuickFig8b is the test-scale preset.
func QuickFig8b() Fig8bConfig { return Fig8bConfig{Tuples: 100_000, Seed: 1} }

// Fig8b measures the distribution of non-blank tuple slots per data packet
// for each corpus stand-in plus the uniform reference.
func Fig8b(cfg Fig8bConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 8(b): non-blank tuple slots per packet (of 32)",
		Note:   "key-space partition leaves slots blank under key skew (§3.2.2)",
		Header: []string{"dataset", "mean", "P10", "P50", "P90"},
	}
	specs := []workload.Spec{uniformMixedKeys(cfg)}
	for _, name := range workload.DatasetNames() {
		specs = append(specs, workload.Dataset(name, cfg.Tuples, cfg.Seed))
	}
	for _, spec := range specs {
		_, cl, err := runAggregation(ask.Options{Hosts: 2, Seed: cfg.Seed}, singleSenderTask(spec, 0))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		hist := cl.Daemon(1).Stats().SlotFill
		var cdf stats.CDF
		for fill, n := range hist {
			cdf.AddN(float64(fill), n)
		}
		t.AddRow(spec.Name, cdf.Mean(), cdf.Quantile(0.10), cdf.Quantile(0.50), cdf.Quantile(0.90))
	}
	return t, nil
}

// uniformMixedKeys is Fig. 8(b)'s "Uniform" line: evenly frequent keys
// whose length mix feeds the packet's units in proportion — 16 short slots
// want 2/3 of the tuple mass, 8 two-slot medium groups the remaining 1/3 —
// so packets pack nearly full (the paper's "no blank tuple in almost every
// packet").
func uniformMixedKeys(cfg Fig8bConfig) workload.Spec {
	return workload.Spec{
		Name:     "Uniform",
		Distinct: 12_000, // small enough that 4-byte names exist for all ranks
		Tuples:   cfg.Tuples,
		KeyLens: func(rank int) int {
			if rank%3 == 2 {
				return 8 // medium
			}
			return 4 // short
		},
		Seed: cfg.Seed,
	}
}
