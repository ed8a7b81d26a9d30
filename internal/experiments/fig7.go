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

// fig7 compares job completion time and CPU cost of ASK with 1/2/4 data
// channels against the host-only PreAggr baseline with 8..56 threads, one
// sender and one receiver host (Fig. 7). Hosts have cpumodel.DefaultCores,
// the paper's 56. CPU% follows the paper's accounting: an ASK data channel
// pins one DPDK core (channels/cores); PreAggr's utilization is measured
// busy time over the job.
func fig7(quick bool) (*stats.Table, error) {
	// The stream length (paper: 6.4 G tuples = 51.2 GB; 1/2000 of it) and
	// the distinct keys: the paper's pre-aggregation shrinks 51.2 GB to
	// 256 MB, a 200× reduction, so distinct ≈ tuples/200.
	tuples, distinct := int64(3_200_000), 16_000
	channels, threads := []int{1, 2, 4}, []int{8, 16, 32, 56}
	if quick {
		tuples, distinct = 1_000_000, 5_000
		channels, threads = []int{1, 4}, []int{8, 32}
	}
	t := &stats.Table{
		Title:  "Fig. 7: JCT and CPU usage — ASK data channels vs PreAggr threads",
		Note:   fmt.Sprintf("%d tuples, %d distinct keys, 1 sender + 1 receiver", tuples, distinct),
		Header: []string{"system", "JCT", "CPU%", "CPU busy"},
	}
	spec := workload.Uniform(distinct, tuples, seed)

	for _, ch := range channels {
		c := microConfig()
		c.DataChannels = ch
		rows := (c.AARows / ch) &^ 1
		cl, elapsed, err := runParallelTasks(
			ask.Options{Hosts: 2, Config: c, Seed: seed},
			ch, rows,
			[]core.HostID{1}, 0,
			func(task int, _ core.HostID) workload.Spec {
				return balancedUniformRows(shortLayout(c.NumAAs), distinct, tuples/int64(ch), seed+int64(task), rows)
			})
		if err != nil {
			return nil, fmt.Errorf("ASK %d dCh: %w", ch, err)
		}
		t.AddRow(fmt.Sprintf("ASK %d dCh", ch),
			elapsed,
			100*float64(ch)/float64(cpumodel.DefaultCores),
			cl.CPU(1).BusyTime()) // sender-side work
	}

	for _, th := range threads {
		rep := baselines.RunPreAggr(baselines.PreAggrConfig{
			Op: core.OpSum, Threads: th, Seed: seed,
		}, spec.Stream())
		want := spec.Reference(core.OpSum)
		if !rep.Result.Equal(want) {
			return nil, fmt.Errorf("PreAggr %d threads: wrong result: %s", th, rep.Result.Diff(want, 5))
		}
		util := 0.0
		if rep.JCT > 0 {
			util = 100 * rep.SenderBusy.Seconds() / (rep.JCT.Seconds() * float64(cpumodel.DefaultCores))
		}
		t.AddRow(fmt.Sprintf("PreAggr %d thr", th), rep.JCT, util, rep.SenderBusy)
	}
	return t, nil
}
