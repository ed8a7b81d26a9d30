package training

import (
	"time"

	"repro/internal/baselines"
)

// Report is one training-throughput measurement.
type Report struct {
	Model   string
	System  string
	Workers int
	// ImagesPerSec is the aggregate training throughput.
	ImagesPerSec float64
	// Breakdown of one iteration.
	Compute time.Duration
	Push    time.Duration
	Pull    time.Duration
}

// Options tunes a training run.
type Options struct {
	Workers int
	// GradScale divides the simulated gradient length; the measured
	// communication time is multiplied back. Push/pull times are linear in
	// volume once the pipeline is full, so scaling preserves them while
	// keeping the packet-level simulation tractable (documented in
	// EXPERIMENTS.md). 1 simulates every packet.
	GradScale int64
	Seed      int64
}

func (o *Options) defaults() {
	if o.Workers == 0 {
		o.Workers = 8
	}
	if o.GradScale == 0 {
		o.GradScale = 64
	}
}

// Train measures steady-state training throughput of one model under one
// aggregation system: iteration time = local compute + gradient push +
// parameter pull (BytePS-style synchronous PS round, no overlap), with the
// push and pull phases simulated packet-by-packet.
func Train(m Model, sys System, opts Options) (Report, error) {
	opts.defaults()
	rep := Report{Model: m.Name, System: sys.String(), Workers: opts.Workers, Compute: m.Compute}
	simBytes := m.GradBytes() / opts.GradScale
	if simBytes < 1 {
		simBytes = 1
	}

	var push, pull time.Duration
	var err error
	switch sys {
	case SysHostPS:
		// Push: M workers ship their gradients to the PS (its link is the
		// bottleneck). Pull: the PS unicasts updated parameters to each
		// worker — the same volume through the same link.
		r := baselines.RunNoAggr(baselines.NoAggrConfig{
			Senders:           opts.Workers,
			ChannelsPerSender: 4,
			BytesPerSender:    simBytes,
			Seed:              opts.Seed,
		})
		push = r.Elapsed
		pull = r.Elapsed
	default:
		g := sys.geometry()
		chunks := int((simBytes + int64(g.vals*4) - 1) / int64(g.vals*4))
		push, err = runPush(pushConfig{
			workers: opts.Workers,
			chunks:  chunks,
			geom:    g,
			seed:    opts.Seed,
		})
		if err != nil {
			return rep, err
		}
		// INA systems pull via switch replication: the PS sends once.
		pull, err = runMulticastPull(opts.Workers, simBytes, opts.Seed)
		if err != nil {
			return rep, err
		}
	}
	rep.Push = push * time.Duration(opts.GradScale)
	rep.Pull = pull * time.Duration(opts.GradScale)
	iter := m.Compute + rep.Push + rep.Pull
	rep.ImagesPerSec = float64(opts.Workers*m.Batch) / iter.Seconds()
	return rep, nil
}
