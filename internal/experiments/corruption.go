package experiments

import (
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// corruptionProbs is the per-link corruption-probability sweep at every
// scale; the first entry is 0, the clean baseline every other row is
// normalized to.
var corruptionProbs = []float64{0, 1e-5, 1e-3}

// corruption runs the link-corruption sweep: the same aggregation task runs
// at increasing per-link corruption probabilities, and the table reports
// what the end-to-end integrity machinery costs — every damaged frame is
// quarantined by the CRC32C check at its receiver and looks like a loss to
// the sliding window, so corruption shows up as retransmission traffic and
// elapsed-time inflation, never as a wrong result. Every row must reproduce
// the clean row's result exactly.
func corruption(quick bool) (*stats.Table, error) {
	// Sending hosts (the receiver is host 0), and each one's distinct keys
	// and stream length.
	senders, distinct, tuples := 3, 2048, int64(300_000)
	if quick {
		senders, distinct, tuples = 2, 512, 40_000
	}
	total := int64(senders) * tuples

	t := &stats.Table{
		Title: "Corruption: per-link byte damage vs goodput and retransmissions",
		Note: fmt.Sprintf("%d senders x %d tuples; CRC32C quarantines every damaged frame, so results stay exact while retransmissions absorb the damage",
			senders, tuples),
		Header: []string{"corrupt-prob", "elapsed", "x clean", "Mtuple/s", "goodput-Gbps", "corrupted", "sw-drop", "host-drop", "retransmits", "exact"},
	}

	var cleanElapsed time.Duration
	for _, prob := range corruptionProbs {
		link := netsim.DefaultLinkConfig()
		link.Fault.CorruptProb = prob
		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
		for h := core.HostID(1); h <= core.HostID(senders); h++ {
			j.Send(h, workload.Uniform(distinct, tuples, seed+int64(h)))
		}
		// The quarantine and retransmission columns come off the cluster
		// registry, so every run carries one.
		res, cl, err := runAggregation(ask.Options{Hosts: senders + 1, Link: link, Seed: seed, Telemetry: true}, j)
		if err != nil {
			return nil, fmt.Errorf("corruption: prob %g: %w", prob, err)
		}
		elapsed := time.Duration(res.Elapsed)
		if prob == 0 {
			cleanElapsed = elapsed
		}
		var goodBytes, corrupted int64
		for i := 0; i < senders; i++ {
			goodBytes += cl.Net.Uplink(core.HostID(i + 1)).Stats().TxGoodBytes
		}
		// Frame damage is counted at the links (uplinks and downlinks both
		// carry checksummed traffic; returning ACKs get damaged too).
		for h := 0; h <= senders; h++ {
			corrupted += cl.Net.Uplink(core.HostID(h)).Stats().Corrupted
			corrupted += cl.Net.Downlink(core.HostID(h)).Stats().Corrupted
		}
		reg := cl.Tel.Registry
		t.AddRow(fmt.Sprintf("%g", prob),
			elapsed,
			float64(elapsed)/float64(cleanElapsed),
			float64(total)/elapsed.Seconds()/1e6,
			stats.Gbps(goodBytes, elapsed),
			corrupted,
			reg.Total("switchd.corrupt_dropped"),
			reg.Total("hostd.corrupt_dropped"),
			reg.Total("window.retransmits"),
			true) // run verified the result
	}
	return t, nil
}
