package experiments

import (
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/switchd"
	"repro/internal/workload"
)

// The swap ablation at every scale: ablationSwapRatio aggregators per
// distinct key, Zipf skew ablationSwapSkew.
const (
	ablationSwapRatio = 1.0 / 16
	ablationSwapSkew  = 1.05
)

// ablationSwap sweeps the shadow-copy swap threshold (§3.4 calls it
// "tunable") on the adversarial cold-first ordering, where cold keys seize
// every aggregator before any hot key arrives: too small a threshold wastes
// fetch bandwidth and churns the copies, too large converges to no
// prioritization. (On shuffled arrivals FCFS already favors hot keys — they
// appear early by weight — so prioritization is about the orderings FCFS
// gets wrong.) It measures switch absorption per threshold.
func ablationSwap(quick bool) (*stats.Table, error) {
	// Thresholds: 0 disables the shadow copy.
	distinct, tuples, thresholds := 8192, int64(1_000_000), []int{0, 32, 128, 512, 2048}
	if quick {
		distinct, tuples, thresholds = 2048, 120_000, []int{0, 256, 1024}
	}
	t := &stats.Table{
		Title:  "Ablation: shadow-copy swap threshold (cold-first Zipf, ratio 1/16)",
		Note:   "threshold 0 disables prioritization entirely",
		Header: []string{"threshold", "aggregated %", "swaps"},
	}
	rows := int(ablationSwapRatio*float64(distinct)) / fig9AAs
	if rows < 2 {
		rows = 2
	}
	rows &^= 1
	for _, th := range thresholds {
		c := microConfig()
		c.NumAAs = fig9AAs
		c.SwapThreshold = th
		spec := workload.Zipf(distinct, tuples, ablationSwapSkew, workload.ColdFirst, seed)
		res, _, err := runAggregation(ask.Options{Hosts: 2, Config: c, Seed: seed}, singleSenderTask(spec, rows))
		if err != nil {
			return nil, fmt.Errorf("threshold %d: %w", th, err)
		}
		t.AddRow(th, 100*res.Switch.AggregatedTupleRatio(), res.Recv.Swaps)
	}
	return t, nil
}

// The window ablation at every scale: ablationWindowLoss is the loss
// probability on each direction of every link.
const ablationWindowLoss = 0.01

// ablationWindow sweeps the sliding-window size W under loss: the window
// bounds in-flight data (and the switch's per-flow SRAM, §3.3). It measures
// completion time and switch SRAM cost per window size.
func ablationWindow(quick bool) (*stats.Table, error) {
	windows, tuples, distinct := []int{32, 64, 256, 1024}, int64(800_000), 4096
	if quick {
		windows, tuples, distinct = []int{32, 256}, 80_000, 1024
	}
	t := &stats.Table{
		Title:  "Ablation: sliding-window size W under loss",
		Note:   fmt.Sprintf("%.1f%% loss each direction; per-flow switch state = W + W×32 bits", 100*ablationWindowLoss),
		Header: []string{"W", "elapsed", "per-flow state (B)", "throughput Gbps"},
	}
	for _, w := range windows {
		c := microConfig()
		c.Window = w
		link := netsim.DefaultLinkConfig()
		link.Fault.LossProb = ablationWindowLoss
		// Large windows need a smaller flow table so W×NumAAs bits of
		// pkt_state fit one PISA stage (the budget the paper's W=256
		// respects with 512 flows; W=1024 trades flows for window).
		swOpts := switchd.DefaultOptions()
		swOpts.MaxFlows = 64
		res, cl, err := runAggregation(ask.Options{Hosts: 2, Config: c, Link: link, Seed: seed, Switch: swOpts},
			singleSenderTask(workload.Uniform(distinct, tuples, seed), 0))
		if err != nil {
			return nil, fmt.Errorf("W=%d: %w", w, err)
		}
		stateBytes := (w + w*c.NumAAs) / 8
		up := cl.Net.Uplink(1).Stats()
		t.AddRow(w, time.Duration(res.Elapsed), stateBytes,
			stats.Gbps(up.TxGoodBytes, time.Duration(res.Elapsed)))
	}
	return t, nil
}

// ablationMedium sweeps the coalesced-group width m (§3.2.3): small m
// pushes more keys to the long bypass; large m wastes slots on padding. It
// compares m = 2 (the paper's choice) with m = 4 and no medium groups at
// all on a long-tailed natural-language workload.
func ablationMedium(quick bool) (*stats.Table, error) {
	tuples := int64(1_000_000)
	if quick {
		tuples = 80_000
	}
	t := &stats.Table{
		Title:  "Ablation: coalesced medium-key group width m (§3.2.3)",
		Note:   "natural-language keys with a heavy long tail",
		Header: []string{"m", "k groups", "max key B", "long bypass %", "aggregated %", "mean slots/pkt"},
	}
	variants := []struct{ m, k int }{{0, 0}, {2, 8}, {4, 4}}
	for _, v := range variants {
		c := core.DefaultConfig()
		c.MediumSegs = v.m
		c.MediumGroups = v.k
		spec := workload.Spec{
			Name:     "longtail",
			Distinct: 60_000,
			Tuples:   tuples,
			Skew:     1.1,
			KeyLens:  workload.NaturalLanguage(2),
			Seed:     seed,
		}
		res, cl, err := runAggregation(ask.Options{Hosts: 2, Config: c, Seed: seed}, singleSenderTask(spec, 0))
		if err != nil {
			return nil, fmt.Errorf("m=%d: %w", v.m, err)
		}
		ds := cl.Daemon(1).Stats()
		var cdf stats.CDF
		for fill, n := range ds.SlotFill {
			cdf.AddN(float64(fill), n)
		}
		t.AddRow(v.m, v.k, c.MaxMediumKeyBytes(),
			100*float64(ds.LongTuplesSent)/float64(tuples),
			100*res.Switch.AggregatedTupleRatio(),
			cdf.Mean())
	}
	return t, nil
}

// The incast at every scale: ablationCongestionSenders senders, each with a
// reliability window of ablationCongestionWindow packets.
const (
	ablationCongestionSenders = 8
	ablationCongestionWindow  = 1024
	ablationCongestionSeed    = 3
)

// ablationCongestion exercises the §7 congestion-control discussion: N
// transport-only senders incast one receiver whose downlink queueing exceeds
// the 100 µs retransmission timeout. It compares the fixed reliability
// window against the AIMD congestion window.
func ablationCongestion(quick bool) (*stats.Table, error) {
	perSender := int64(150_000)
	if quick {
		perSender = 60_000
	}
	t := &stats.Table{
		Title: "Ablation: loss-based congestion control under incast (§7)",
		Note: fmt.Sprintf("%d transport-only senders → 1 receiver, W=%d, timeout 100µs",
			ablationCongestionSenders, ablationCongestionWindow),
		Header: []string{"congestion control", "retransmit ratio", "elapsed", "app Gbps"},
	}
	for _, cc := range []bool{false, true} {
		c := microConfig()
		c.Window = ablationCongestionWindow
		c.CongestionControl = cc
		swOpts := switchd.DefaultOptions()
		swOpts.MaxFlows = 8 * (ablationCongestionSenders + 2) // fit W=1024 pkt_state in a stage
		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: -1})
		for i := 1; i <= ablationCongestionSenders; i++ {
			j.Send(core.HostID(i), workload.Uniform(2048, perSender, ablationCongestionSeed+int64(i)))
		}
		res, cl, err := runAggregation(ask.Options{Hosts: ablationCongestionSenders + 1, Config: c, Seed: ablationCongestionSeed, Switch: swOpts}, j)
		if err != nil {
			return nil, fmt.Errorf("congestion cc=%v: %w", cc, err)
		}
		var retrans, sent int64
		for i := 1; i <= ablationCongestionSenders; i++ {
			for _, s := range cl.Daemon(core.HostID(i)).ChannelStats() {
				retrans += s.Retransmits
				sent += s.Sent
			}
		}
		label := "off (fixed W)"
		if cc {
			label = "on (AIMD ≤ W)"
		}
		// Application throughput: unique tuple bytes over completion time
		// (receiver-side byte counters would double-count the duplicates
		// the storm produces).
		appBytes := 8 * perSender * ablationCongestionSenders
		t.AddRow(label, float64(retrans)/float64(sent), time.Duration(res.Elapsed),
			stats.Gbps(appBytes, time.Duration(res.Elapsed)))
	}
	return t, nil
}
