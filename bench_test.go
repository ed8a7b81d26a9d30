package repro

// The benchmark harness: one Benchmark per table/figure of the paper's
// evaluation (§5), each running the benchmark-scale preset and printing the
// regenerated rows, plus ablation and micro benchmarks on the core data
// structures. Run everything with
//
//	go test -bench=. -benchmem
//
// Experiment benchmarks are macro-benchmarks: one iteration runs the whole
// experiment on virtual time and reports wall seconds per run; the printed
// tables are the reproduction artifact (collected in EXPERIMENTS.md).

import (
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// benchExperiment runs one registry experiment at benchmark scale and
// prints its tables on the first iteration.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	r, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var tables []*stats.Table
	for i := 0; i < b.N; i++ {
		tables, err = r.Run(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, t := range tables {
		fmt.Println(t.String())
	}
}

// BenchmarkFig3 regenerates Fig. 3: single-machine AKV/s for vanilla Spark,
// the strawman single-tuple INA, and multi-key ASK.
func BenchmarkFig3(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig7 regenerates Fig. 7: JCT and CPU of ASK data channels vs the
// PreAggr host-only baseline.
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable1 regenerates Table 1: traffic reduction per corpus.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig8a regenerates Fig. 8(a): goodput vs tuples per packet.
func BenchmarkFig8a(b *testing.B) { benchExperiment(b, "fig8a") }

// BenchmarkFig8b regenerates Fig. 8(b): packet slot-fill CDF per dataset.
func BenchmarkFig8b(b *testing.B) { benchExperiment(b, "fig8b") }

// BenchmarkFig9 regenerates Fig. 9: switch absorption vs aggregator budget
// with and without hot-key agnostic prioritization.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates Fig. 10: WordCount JCT across shuffles.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Fig. 11: mapper/reducer TCT breakdown.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Fig. 12: distributed-training throughput.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13a regenerates Fig. 13(a): throughput/overhead vs channels.
func BenchmarkFig13a(b *testing.B) { benchExperiment(b, "fig13a") }

// BenchmarkFig13b regenerates Fig. 13(b): per-sender throughput scaling.
func BenchmarkFig13b(b *testing.B) { benchExperiment(b, "fig13b") }

// BenchmarkAblationSwap sweeps the shadow-copy swap threshold.
func BenchmarkAblationSwap(b *testing.B) { benchExperiment(b, "ablation-swap") }

// BenchmarkAblationWindow sweeps the sliding-window size under loss.
func BenchmarkAblationWindow(b *testing.B) { benchExperiment(b, "ablation-window") }

// BenchmarkAblationMedium sweeps the coalesced medium-key group width.
func BenchmarkAblationMedium(b *testing.B) { benchExperiment(b, "ablation-medium") }

// BenchmarkAblationCongestion compares the fixed reliability window with
// the AIMD congestion window under incast (§7).
func BenchmarkAblationCongestion(b *testing.B) { benchExperiment(b, "ablation-congestion") }

// BenchmarkMultiRack sweeps the §7 multi-rack deployment: switch absorption
// versus the fraction of cross-rack senders.
func BenchmarkMultiRack(b *testing.B) { benchExperiment(b, "multirack") }

// BenchmarkScenarios sweeps the committed scenario corpus: every named
// workload shape generated from its seed and replayed with arrival
// timestamps on the sim clock (pacing, lull flushes, bursts), reporting AA
// hit rate, shadow promotions, and goodput fraction per shape.
func BenchmarkScenarios(b *testing.B) { benchExperiment(b, "scenarios") }

// BenchmarkTenancy runs the multi-tenant fat-tree sweeps: weighted goodput
// fairness under admission control, and shared-pool AA utilization versus
// the single-tenant baseline.
func BenchmarkTenancy(b *testing.B) { benchExperiment(b, "tenancy") }

// BenchmarkScaling sweeps shard counts over the multi-rack and fat-tree
// fabrics (DESIGN.md "Parallel DES"), verifying serial equivalence per
// point; wall time per shard count is what the two *Shards benchmarks below
// measure.
func BenchmarkScaling(b *testing.B) { benchExperiment(b, "scaling") }

// benchShards times one topology's scaling workload per shard count: a
// wall-clock point for every (topology, shards) pair. On a single-CPU host
// the per-shard numbers are expected to be flat: lanes interleave on one core
// and the windows only add barrier overhead.
func benchShards(b *testing.B, topology string) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := experiments.ScalingPoint(topology, experiments.DefaultScaling(), shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiRackShards sweeps the two-tier fabric over shard counts.
func BenchmarkMultiRackShards(b *testing.B) { benchShards(b, "multirack") }

// BenchmarkFatTreeShards sweeps the spine/leaf fabric over shard counts.
func BenchmarkFatTreeShards(b *testing.B) { benchShards(b, "fattree") }
