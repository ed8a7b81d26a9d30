package repro

// Micro benchmarks with no counterpart among bench/'s per-layer timings
// (`go run ./bench -trace 1`, bench/layers.go): the 2W-bit baseline of the
// seen ablation — §3.3's compact window, which the benchmark times as
// window.seen_observe_ns, must not be slower than it — and the workload
// generator.

import (
	"testing"

	"repro/internal/window"
	"repro/internal/workload"
)

// BenchmarkAblationSeenNaive measures the straightforward 2W-bit receive
// window (Eq. 5–7, twice the state).
func BenchmarkAblationSeenNaive(b *testing.B) {
	s := window.NewNaiveSeen(256)
	b.ReportMetric(float64(s.Bits()), "state-bits")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Observe(uint32(i))
	}
}

// BenchmarkWorkloadZipf measures the Zipf stream generator.
func BenchmarkWorkloadZipf(b *testing.B) {
	s := workload.Zipf(1<<16, int64(b.N)+1, 1.1, workload.Shuffled, 1).Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}
