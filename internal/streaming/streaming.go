// Package streaming builds windowed stream aggregation on top of the ASK
// service — the real-time processing workloads (Spark Streaming, Flink,
// Kafka consumers) the paper cites as the motivating case for asynchronous
// aggregation (§2.1.1, §2.1.3): keys are unordered and unforeseeable, and
// the stream is unbounded.
//
// A Windower slices each source's unbounded stream into tumbling windows of
// a fixed tuple count and runs one ASK aggregation task per window. Windows
// are pipelined through the persistent data channels; each produces an
// exact per-key aggregate.
package streaming

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// Service is the slice of the ASK API the windower needs. Every ask
// deployment (Cluster, FatTreeCluster) provides it through
// the Streaming() adapter of the shared cluster core.
type Service interface {
	// Start submits a task without running the simulation.
	Start(spec core.TaskSpec, streams map[core.HostID]core.Stream) (Pending, error)
	// Run drives the simulation until quiescence.
	Run()
}

// Pending resolves to a window's result after Run.
type Pending interface {
	Result() (core.Result, sim.Time, error)
}

// Config describes a windowed aggregation job.
type Config struct {
	// Receiver hosts the results; Sources are the stream origins.
	Receiver core.HostID
	Sources  []core.HostID
	// WindowTuples is the tumbling window size per source.
	WindowTuples int64
	// Windows is the number of windows to process.
	Windows int
	// Op is the per-window aggregation operator.
	Op core.Op
	// BaseTask is the first window's task ID; window i uses BaseTask+i.
	BaseTask core.TaskID
	// Rows per window task (0 = controller default). All windows of a
	// batch hold switch regions concurrently, so choose
	// Rows ≤ AARows/Windows when Windows × default would oversubscribe
	// the switch.
	Rows int
}

// WindowResult is one completed window.
type WindowResult struct {
	Index  int
	Result core.Result
	// Elapsed is the window task's completion time on virtual time.
	Elapsed sim.Time
}

// Run slices each source stream into cfg.Windows tumbling windows and
// aggregates every window through the service, returning results in window
// order. All windows of a batch are submitted up front and pipeline through
// the persistent channels.
func Run(svc Service, cfg Config, sources map[core.HostID]core.Stream) ([]WindowResult, error) {
	if cfg.WindowTuples <= 0 || cfg.Windows <= 0 {
		return nil, fmt.Errorf("streaming: need positive WindowTuples and Windows")
	}
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("streaming: no sources")
	}
	for _, s := range cfg.Sources {
		if _, ok := sources[s]; !ok {
			return nil, fmt.Errorf("streaming: no stream for source %d", s)
		}
	}
	var pendings []Pending
	for w := 0; w < cfg.Windows; w++ {
		streams := make(map[core.HostID]core.Stream, len(cfg.Sources))
		for _, s := range cfg.Sources {
			streams[s] = take(sources[s], cfg.WindowTuples)
		}
		pt, err := svc.Start(core.TaskSpec{
			ID:       cfg.BaseTask + core.TaskID(w),
			Receiver: cfg.Receiver,
			Senders:  cfg.Sources,
			Op:       cfg.Op,
			Rows:     cfg.Rows,
		}, streams)
		if err != nil {
			return nil, fmt.Errorf("streaming: window %d: %w", w, err)
		}
		pendings = append(pendings, pt)
	}
	svc.Run()
	out := make([]WindowResult, 0, cfg.Windows)
	for w, pt := range pendings {
		res, elapsed, err := pt.Result()
		if err != nil {
			return nil, fmt.Errorf("streaming: window %d: %w", w, err)
		}
		out = append(out, WindowResult{Index: w, Result: res, Elapsed: elapsed})
	}
	return out, nil
}

// take returns a sub-stream yielding at most n tuples of s. Windows taken
// from the same source share the underlying stream, so consecutive takes
// partition it; the caller must consume windows in submission order, which
// Run guarantees by building all windows before the simulation starts.
//
// Sub-streams are materialized lazily per call but bounded by n.
func take(s core.Stream, n int64) core.Stream {
	// Materialize the window eagerly: the underlying stream is shared
	// across windows and data channels consume them concurrently, so the
	// slice boundary must be fixed at submission time.
	kvs := make([]core.KV, 0, min(n, 1<<16))
	for int64(len(kvs)) < n {
		kv, ok := s()
		if !ok {
			break
		}
		kvs = append(kvs, kv)
	}
	return core.SliceStream(kvs)
}
