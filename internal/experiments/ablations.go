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

// AblationSwapConfig sweeps the shadow-copy swap threshold (§3.4 calls it
// "tunable") on the adversarial cold-first ordering, where cold keys seize
// every aggregator before any hot key arrives: too small a threshold wastes
// fetch bandwidth and churns the copies, too large converges to no
// prioritization. (On shuffled arrivals FCFS already favors hot keys — they
// appear early by weight — so prioritization is about the orderings FCFS
// gets wrong.)
type AblationSwapConfig struct {
	Distinct   int
	Tuples     int64
	Ratio      float64 // aggregators per distinct key
	Thresholds []int   // 0 disables the shadow copy
	Skew       float64
	Seed       int64
}

// DefaultAblationSwap is the benchmark-scale preset.
func DefaultAblationSwap() AblationSwapConfig {
	return AblationSwapConfig{
		Distinct:   8192,
		Tuples:     1_000_000,
		Ratio:      1.0 / 16,
		Thresholds: []int{0, 32, 128, 512, 2048},
		Skew:       1.05,
		Seed:       1,
	}
}

// QuickAblationSwap is the test-scale preset.
func QuickAblationSwap() AblationSwapConfig {
	return AblationSwapConfig{
		Distinct: 2048, Tuples: 120_000, Ratio: 1.0 / 16,
		Thresholds: []int{0, 256, 1024}, Skew: 1.05, Seed: 1,
	}
}

// AblationSwap measures switch absorption across swap thresholds.
func AblationSwap(cfg AblationSwapConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Ablation: shadow-copy swap threshold (cold-first Zipf, ratio 1/16)",
		Note:   "threshold 0 disables prioritization entirely",
		Header: []string{"threshold", "aggregated %", "swaps"},
	}
	rows := int(cfg.Ratio*float64(cfg.Distinct)) / fig9AAs
	if rows < 2 {
		rows = 2
	}
	rows &^= 1
	for _, th := range cfg.Thresholds {
		c := core.DefaultConfig()
		c.NumAAs = fig9AAs
		c.MediumGroups = 0
		c.MediumSegs = 0
		c.SwapThreshold = th
		spec := workload.Zipf(cfg.Distinct, cfg.Tuples, cfg.Skew, workload.ColdFirst, cfg.Seed)
		res, _, err := runAggregation(ask.Options{Hosts: 2, Config: c, Seed: cfg.Seed}, singleSenderTask(spec, rows))
		if err != nil {
			return nil, fmt.Errorf("threshold %d: %w", th, err)
		}
		t.AddRow(th, 100*res.Switch.AggregatedTupleRatio(), res.Recv.Swaps)
	}
	return t, nil
}

// AblationWindowConfig sweeps the sliding-window size W under loss: the
// window bounds in-flight data (and the switch's per-flow SRAM, §3.3).
type AblationWindowConfig struct {
	Windows  []int
	Tuples   int64
	Distinct int
	LossProb float64
	Seed     int64
}

// DefaultAblationWindow is the benchmark-scale preset.
func DefaultAblationWindow() AblationWindowConfig {
	return AblationWindowConfig{
		Windows: []int{32, 64, 256, 1024}, Tuples: 800_000, Distinct: 4096,
		LossProb: 0.01, Seed: 1,
	}
}

// QuickAblationWindow is the test-scale preset.
func QuickAblationWindow() AblationWindowConfig {
	return AblationWindowConfig{
		Windows: []int{32, 256}, Tuples: 80_000, Distinct: 1024,
		LossProb: 0.01, Seed: 1,
	}
}

// AblationWindow measures completion time and switch SRAM cost per window
// size.
func AblationWindow(cfg AblationWindowConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Ablation: sliding-window size W under loss",
		Note:   fmt.Sprintf("%.1f%% loss each direction; per-flow switch state = W + W×32 bits", 100*cfg.LossProb),
		Header: []string{"W", "elapsed", "per-flow state (B)", "throughput Gbps"},
	}
	for _, w := range cfg.Windows {
		c := core.DefaultConfig()
		c.Window = w
		c.MediumGroups = 0
		c.MediumSegs = 0
		c.SwapThreshold = 0
		link := netsim.DefaultLinkConfig()
		link.Fault.LossProb = cfg.LossProb
		// Large windows need a smaller flow table so W×NumAAs bits of
		// pkt_state fit one PISA stage (the budget the paper's W=256
		// respects with 512 flows; W=1024 trades flows for window).
		swOpts := switchd.DefaultOptions()
		swOpts.MaxFlows = 64
		res, cl, err := runAggregation(ask.Options{Hosts: 2, Config: c, Link: link, Seed: cfg.Seed, Switch: swOpts},
			singleSenderTask(workload.Uniform(cfg.Distinct, cfg.Tuples, cfg.Seed), 0))
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

// AblationMediumConfig sweeps the coalesced-group width m (§3.2.3): small m
// pushes more keys to the long bypass; large m wastes slots on padding.
type AblationMediumConfig struct {
	Tuples int64
	Seed   int64
}

// DefaultAblationMedium is the benchmark-scale preset.
func DefaultAblationMedium() AblationMediumConfig {
	return AblationMediumConfig{Tuples: 1_000_000, Seed: 1}
}

// QuickAblationMedium is the test-scale preset.
func QuickAblationMedium() AblationMediumConfig {
	return AblationMediumConfig{Tuples: 80_000, Seed: 1}
}

// AblationMedium compares m = 2 (the paper's choice) with m = 4 and no
// medium groups at all on a long-tailed natural-language workload.
func AblationMedium(cfg AblationMediumConfig) (*stats.Table, error) {
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
			Tuples:   cfg.Tuples,
			Skew:     1.1,
			KeyLens:  workload.NaturalLanguage(2),
			Seed:     cfg.Seed,
		}
		res, cl, err := runAggregation(ask.Options{Hosts: 2, Config: c, Seed: cfg.Seed}, singleSenderTask(spec, 0))
		if err != nil {
			return nil, fmt.Errorf("m=%d: %w", v.m, err)
		}
		ds := cl.Daemon(1).Stats()
		var cdf stats.CDF
		for fill, n := range ds.SlotFill {
			cdf.AddN(float64(fill), n)
		}
		t.AddRow(v.m, v.k, c.MaxMediumKeyBytes(),
			100*float64(ds.LongTuplesSent)/float64(cfg.Tuples),
			100*res.Switch.AggregatedTupleRatio(),
			cdf.Mean())
	}
	return t, nil
}

// AblationCongestionConfig exercises the §7 congestion-control discussion:
// N transport-only senders incast one receiver whose downlink queueing
// exceeds the 100 µs retransmission timeout.
type AblationCongestionConfig struct {
	Senders         int
	TuplesPerSender int64
	Window          int
	Seed            int64
}

// DefaultAblationCongestion is the benchmark-scale preset.
func DefaultAblationCongestion() AblationCongestionConfig {
	return AblationCongestionConfig{Senders: 8, TuplesPerSender: 150_000, Window: 1024, Seed: 3}
}

// QuickAblationCongestion is the test-scale preset.
func QuickAblationCongestion() AblationCongestionConfig {
	return AblationCongestionConfig{Senders: 8, TuplesPerSender: 60_000, Window: 1024, Seed: 3}
}

// AblationCongestion compares the fixed reliability window against the AIMD
// congestion window under incast.
func AblationCongestion(cfg AblationCongestionConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Ablation: loss-based congestion control under incast (§7)",
		Note: fmt.Sprintf("%d transport-only senders → 1 receiver, W=%d, timeout 100µs",
			cfg.Senders, cfg.Window),
		Header: []string{"congestion control", "retransmit ratio", "elapsed", "app Gbps"},
	}
	for _, cc := range []bool{false, true} {
		c := core.DefaultConfig()
		c.Window = cfg.Window
		c.CongestionControl = cc
		c.MediumGroups = 0
		c.MediumSegs = 0
		c.SwapThreshold = 0
		swOpts := switchd.DefaultOptions()
		swOpts.MaxFlows = 8 * (cfg.Senders + 2) // fit W=1024 pkt_state in a stage
		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: -1})
		for i := 1; i <= cfg.Senders; i++ {
			j.Send(core.HostID(i), workload.Uniform(2048, cfg.TuplesPerSender, cfg.Seed+int64(i)))
		}
		res, cl, err := runAggregation(ask.Options{Hosts: cfg.Senders + 1, Config: c, Seed: cfg.Seed, Switch: swOpts}, j)
		if err != nil {
			return nil, fmt.Errorf("congestion cc=%v: %w", cc, err)
		}
		var retrans, sent int64
		for i := 1; i <= cfg.Senders; i++ {
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
		appBytes := 8 * cfg.TuplesPerSender * int64(cfg.Senders)
		t.AddRow(label, float64(retrans)/float64(sent), time.Duration(res.Elapsed),
			stats.Gbps(appBytes, time.Duration(res.Elapsed)))
	}
	return t, nil
}
