package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig7Config parameterizes the computation-offload comparison (Fig. 7):
// ASK with 1/2/4 data channels vs. the host-only PreAggr baseline with
// 8..56 threads, one sender and one receiver host.
type Fig7Config struct {
	// Tuples is the stream length (paper: 6.4 G tuples = 51.2 GB; scaled).
	Tuples int64
	// Distinct keys: the paper's pre-aggregation shrinks 51.2 GB to 256 MB,
	// a 200× reduction, so Distinct ≈ Tuples/200.
	Distinct int
	Channels []int
	Threads  []int
	Cores    int
	Seed     int64
}

// DefaultFig7 is the benchmark-scale preset (1/1000 of the paper's volume).
func DefaultFig7() Fig7Config {
	return Fig7Config{
		Tuples:   3_200_000,
		Distinct: 16_000,
		Channels: []int{1, 2, 4},
		Threads:  []int{8, 16, 32, 56},
		Cores:    cpumodel.DefaultCores,
		Seed:     1,
	}
}

// QuickFig7 is the test-scale preset.
func QuickFig7() Fig7Config {
	return Fig7Config{
		Tuples:   1_000_000,
		Distinct: 5_000,
		Channels: []int{1, 4},
		Threads:  []int{8, 32},
		Cores:    cpumodel.DefaultCores,
		Seed:     1,
	}
}

// Fig7 compares job completion time and CPU cost of ASK against PreAggr.
// CPU% follows the paper's accounting: an ASK data channel pins one DPDK
// core (channels/cores); PreAggr's utilization is measured busy time over
// the job.
func Fig7(cfg Fig7Config) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 7: JCT and CPU usage — ASK data channels vs PreAggr threads",
		Note:   fmt.Sprintf("%d tuples, %d distinct keys, 1 sender + 1 receiver", cfg.Tuples, cfg.Distinct),
		Header: []string{"system", "JCT", "CPU%", "CPU busy"},
	}
	spec := workload.Uniform(cfg.Distinct, cfg.Tuples, cfg.Seed)

	for _, ch := range cfg.Channels {
		c := core.DefaultConfig()
		c.DataChannels = ch
		c.MediumGroups = 0
		c.MediumSegs = 0
		c.SwapThreshold = 0
		rows := (c.AARows / ch) &^ 1
		cl, elapsed, err := runParallelTasks(
			ask.Options{Hosts: 2, Config: c, Cores: cfg.Cores, Seed: cfg.Seed},
			ch, rows,
			[]core.HostID{1}, 0,
			func(task int, _ core.HostID) workload.Spec {
				return balancedUniformRows(shortLayout(c.NumAAs), cfg.Distinct, cfg.Tuples/int64(ch), cfg.Seed+int64(task), rows)
			})
		if err != nil {
			return nil, fmt.Errorf("ASK %d dCh: %w", ch, err)
		}
		t.AddRow(fmt.Sprintf("ASK %d dCh", ch),
			elapsed,
			100*float64(ch)/float64(cfg.Cores),
			cl.CPU(1).BusyTime()) // sender-side work
	}

	for _, th := range cfg.Threads {
		rep := baselines.RunPreAggr(baselines.PreAggrConfig{
			Op: core.OpSum, Threads: th, Cores: cfg.Cores, Seed: cfg.Seed,
		}, spec.Stream())
		want := spec.Reference(core.OpSum)
		if !rep.Result.Equal(want) {
			return nil, fmt.Errorf("PreAggr %d threads: wrong result: %s", th, rep.Result.Diff(want, 5))
		}
		util := 0.0
		if rep.JCT > 0 {
			util = 100 * rep.SenderBusy.Seconds() / (rep.JCT.Seconds() * float64(cfg.Cores))
		}
		t.AddRow(fmt.Sprintf("PreAggr %d thr", th), rep.JCT, util, rep.SenderBusy)
	}
	return t, nil
}
