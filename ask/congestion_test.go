package ask

import (
	"testing"

	"repro/internal/core"
	"repro/internal/switchd"
	"repro/internal/window"
	"repro/internal/workload"
)

// congestedRun drives eight transport-only senders (no switch absorption)
// into one receiver: the receiver's downlink is 8× oversubscribed, its
// queueing delay (8 senders × W packets of wire time ≈ 220 µs) exceeds the
// 100 µs retransmission timeout, and without congestion control the fixed
// windows melt down into retransmission storms.
func congestedRun(t *testing.T, cc bool) (retransmits, sent int64) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Window = 1024
	cfg.CongestionControl = cc
	cfg.MediumGroups = 0
	cfg.MediumSegs = 0
	cfg.SwapThreshold = 0
	// W=1024 needs a smaller flow table to fit pkt_state in one PISA
	// stage (the SRAM budget is enforced): 9 hosts × 5 channels < 64.
	swOpts := switchd.DefaultOptions()
	swOpts.MaxFlows = 64
	cl, err := NewCluster(Options{Hosts: 9, Config: cfg, Seed: 3, Switch: swOpts})
	if err != nil {
		t.Fatal(err)
	}
	job := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Rows: -1}) // transport-only
	for i := 1; i <= 8; i++ {
		job.Send(core.HostID(i), workload.Uniform(2048, 60_000, int64(i)))
	}
	runJob(t, &cl.Deployment, job)
	var stats window.SenderStats
	for i := 1; i <= 8; i++ {
		for _, s := range cl.Daemon(core.HostID(i)).ChannelStats() {
			stats.Retransmits += s.Retransmits
			stats.Sent += s.Sent
		}
	}
	return stats.Retransmits, stats.Sent
}

func TestCongestionControlTamesIncast(t *testing.T) {
	offR, offS := congestedRun(t, false)
	onR, onS := congestedRun(t, true)
	offRatio := float64(offR) / float64(offS)
	onRatio := float64(onR) / float64(onS)
	t.Logf("retransmit ratio: off=%.3f (%d/%d) on=%.3f (%d/%d)", offRatio, offR, offS, onRatio, onR, onS)
	// Correctness holds either way; congestion control must cut the
	// spurious-retransmission ratio substantially under incast.
	if onRatio > offRatio/2 {
		t.Fatalf("CC did not tame incast: %.3f vs %.3f", onRatio, offRatio)
	}
}
