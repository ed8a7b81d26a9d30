package experiments

import (
	"fmt"

	"repro/ask"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig13a is the bandwidth-overhead study (Fig. 13(a)): goodput (filled
// bar) and total wire rate (bar outline) of ASK vs. pure NoAggr
// transmission between one sender and one receiver, per data channel count.
func fig13a(quick bool) (*stats.Table, error) {
	channels, tuples, distinct := []int{1, 2, 4, 8}, int64(8_000_000), 8192
	if quick {
		channels, tuples, distinct = []int{1, 4}, 4_000_000, 2048
	}
	t := &stats.Table{
		Title:  "Fig. 13(a): aggregation throughput and bandwidth overhead, 1 sender",
		Note:   "ASK: 32-slot 334 B packets (76.6% goodput ceiling); NoAggr: 1500 B MTU (94.9%)",
		Header: []string{"channels", "ASK good Gbps", "ASK wire Gbps", "NoAggr good Gbps", "NoAggr wire Gbps"},
	}
	for _, ch := range channels {
		askGood, askWire, err := fig13ASKRun(tuples, distinct, ch)
		if err != nil {
			return nil, err
		}
		// NoAggr ships the same application volume (8 B per tuple).
		na := baselines.RunNoAggr(baselines.NoAggrConfig{
			Senders:           1,
			ChannelsPerSender: ch,
			BytesPerSender:    tuples * 8,
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

// fig13b is the scalability study (Fig. 13(b)): average per-sender
// goodput as the sender count grows. ASK stays flat (the switch absorbs the
// fan-in) while NoAggr decays as 1/N (the receiver link is the bottleneck).
func fig13b(quick bool) (*stats.Table, error) {
	senders, perSender, distinct := []int{1, 2, 4, 8}, int64(2_000_000), 4096
	if quick {
		senders, perSender, distinct = []int{1, 4}, 400_000, 1024
	}
	t := &stats.Table{
		Title:  "Fig. 13(b): average per-sender throughput vs sender count",
		Header: []string{"senders", "ASK Gbps/sender", "NoAggr Gbps/sender"},
	}
	for _, n := range senders {
		askRate, err := fig13bASKRun(n, perSender, distinct)
		if err != nil {
			return nil, err
		}
		na := baselines.RunNoAggr(baselines.NoAggrConfig{
			Senders:           n,
			ChannelsPerSender: 4,
			BytesPerSender:    perSender * 8,
			Seed:              seed,
		})
		t.AddRow(n, askRate, na.PerSenderGoodbps)
	}
	return t, nil
}

func fig13bASKRun(senders int, perSender int64, distinct int) (float64, error) {
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
			return balancedUniformRows(shortLayout(c.NumAAs), distinct, perSender/k, seed+int64(task)*100+int64(h), rows)
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
