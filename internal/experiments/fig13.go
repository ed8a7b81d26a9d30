package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig13aConfig parameterizes the bandwidth-overhead study (Fig. 13(a)):
// goodput and wire overhead of ASK vs. pure NoAggr transmission between one
// sender and one receiver, sweeping data channels.
type Fig13aConfig struct {
	Channels []int
	Tuples   int64
	Distinct int
}

// DefaultFig13a is the benchmark-scale preset.
func DefaultFig13a() Fig13aConfig {
	return Fig13aConfig{Channels: []int{1, 2, 4, 8}, Tuples: 8_000_000, Distinct: 8192}
}

// QuickFig13a is the test-scale preset.
func QuickFig13a() Fig13aConfig {
	return Fig13aConfig{Channels: []int{1, 4}, Tuples: 4_000_000, Distinct: 2048}
}

// Fig13a reports goodput (filled bar) and total wire rate (bar outline) per
// channel count for both systems.
func Fig13a(cfg Fig13aConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 13(a): aggregation throughput and bandwidth overhead, 1 sender",
		Note:   "ASK: 32-slot 334 B packets (76.6% goodput ceiling); NoAggr: 1500 B MTU (94.9%)",
		Header: []string{"channels", "ASK good Gbps", "ASK wire Gbps", "NoAggr good Gbps", "NoAggr wire Gbps"},
	}
	for _, ch := range cfg.Channels {
		askGood, askWire, err := fig13ASKRun(cfg.Tuples, cfg.Distinct, ch)
		if err != nil {
			return nil, err
		}
		// NoAggr ships the same application volume (8 B per tuple).
		na := baselines.RunNoAggr(baselines.NoAggrConfig{
			Senders:           1,
			ChannelsPerSender: ch,
			BytesPerSender:    cfg.Tuples * 8,
			Seed:              seed,
		})
		t.AddRow(ch, askGood, askWire, na.GoodputGbps, na.WireGbps)
	}
	return t, nil
}

// fig13ASKRun measures ASK sender-side goodput/wire rate for one channel
// count, striping the workload across one task per channel.
func fig13ASKRun(tuples int64, distinct, channels int) (good, wire float64, err error) {
	c := microConfig()
	c.DataChannels = channels
	rows := (c.AARows / channels) &^ 1
	cl, elapsed, err := runParallelTasks(
		ask.Options{Hosts: 2, Config: c, Seed: seed},
		channels, rows,
		[]core.HostID{1}, 0,
		func(task int, _ core.HostID) workload.Spec {
			return balancedUniformRows(shortLayout(c.NumAAs), distinct, tuples/int64(channels), seed+int64(task), rows)
		})
	if err != nil {
		return 0, 0, fmt.Errorf("fig13a ch=%d: %w", channels, err)
	}
	up := cl.Net.Uplink(1).Stats()
	return stats.Gbps(up.TxGoodBytes, elapsed), stats.Gbps(up.TxWireBytes, elapsed), nil
}

// Fig13bConfig parameterizes the scalability study (Fig. 13(b)): average
// per-sender throughput as the sender count grows.
type Fig13bConfig struct {
	Senders         []int
	TuplesPerSender int64
	Distinct        int
}

// DefaultFig13b is the benchmark-scale preset.
func DefaultFig13b() Fig13bConfig {
	return Fig13bConfig{Senders: []int{1, 2, 4, 8}, TuplesPerSender: 2_000_000, Distinct: 4096}
}

// QuickFig13b is the test-scale preset.
func QuickFig13b() Fig13bConfig {
	return Fig13bConfig{Senders: []int{1, 4}, TuplesPerSender: 400_000, Distinct: 1024}
}

// Fig13b reports per-sender goodput: ASK stays flat (the switch absorbs the
// fan-in) while NoAggr decays as 1/N (the receiver link is the bottleneck).
func Fig13b(cfg Fig13bConfig) (*stats.Table, error) {
	t := &stats.Table{
		Title:  "Fig. 13(b): average per-sender throughput vs sender count",
		Header: []string{"senders", "ASK Gbps/sender", "NoAggr Gbps/sender"},
	}
	for _, n := range cfg.Senders {
		askRate, err := fig13bASKRun(cfg, n)
		if err != nil {
			return nil, err
		}
		na := baselines.RunNoAggr(baselines.NoAggrConfig{
			Senders:           n,
			ChannelsPerSender: 4,
			BytesPerSender:    cfg.TuplesPerSender * 8,
			Seed:              seed,
		})
		t.AddRow(n, askRate, na.PerSenderGoodbps)
	}
	return t, nil
}

func fig13bASKRun(cfg Fig13bConfig, senders int) (float64, error) {
	c := microConfig()
	hosts := make([]core.HostID, senders)
	for i := range hosts {
		hosts[i] = core.HostID(i + 1)
	}
	// Four tasks stripe every sender's stream across its four channels.
	const k = 4
	rows := (c.AARows / k) &^ 1
	cl, elapsed, err := runParallelTasks(
		ask.Options{Hosts: senders + 1, Config: c, Seed: seed},
		k, rows, hosts, 0,
		func(task int, h core.HostID) workload.Spec {
			return balancedUniformRows(shortLayout(c.NumAAs), cfg.Distinct, cfg.TuplesPerSender/k, seed+int64(task)*100+int64(h), rows)
		})
	if err != nil {
		return 0, fmt.Errorf("fig13b n=%d: %w", senders, err)
	}
	var goodBytes int64
	for _, h := range hosts {
		goodBytes += cl.Net.Uplink(h).Stats().TxGoodBytes
	}
	return stats.Gbps(goodBytes, elapsed) / float64(senders), nil
}
