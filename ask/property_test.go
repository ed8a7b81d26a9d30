package ask

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// TestAggregationExactUnderRandomConditions is the system-level property
// test: for arbitrary (seeded) combinations of fault rates, topology, task
// shape, workload skew, region size, and swap aggressiveness, the service
// must return the exact aggregation. This is Eq. 2 as an invariant.
func TestAggregationExactUnderRandomConditions(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep")
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := core.DefaultConfig()
		cfg.DataChannels = 1 + rng.Intn(4)
		cfg.Window = 1 << (5 + rng.Intn(4)) // 32..256
		cfg.SwapThreshold = 0               // no shadow copies
		if rng.Intn(2) == 0 {
			cfg.SwapThreshold = 16 << rng.Intn(5)
		}
		link := netsim.DefaultLinkConfig()
		link.Fault.LossProb = float64(rng.Intn(8)) / 100
		link.Fault.DupProb = float64(rng.Intn(5)) / 100
		link.Fault.ReorderProb = float64(rng.Intn(10)) / 100
		link.Fault.ReorderDelay = time.Duration(1+rng.Intn(80)) * time.Microsecond

		hosts := 2 + rng.Intn(3)
		senders := 1 + rng.Intn(hosts-1)
		cl, err := NewCluster(Options{Hosts: hosts, Config: cfg, Link: link, Seed: seed})
		if err != nil {
			t.Logf("seed %d: cluster: %v", seed, err)
			return false
		}
		spec := core.TaskSpec{
			ID:       core.TaskID(1 + rng.Intn(1000)),
			Receiver: 0,
			Op:       core.OpSum,
			Rows:     []int{0, 2, 64, 1024}[rng.Intn(4)],
		}
		job := NewJob(spec)
		for i := 1; i <= senders; i++ {
			job.Send(core.HostID(i), workload.Spec{
				Name:     "prop",
				Distinct: 1 + rng.Intn(3000),
				Tuples:   int64(500 + rng.Intn(4000)),
				Skew:     []float64{0, 1.05, 1.3}[rng.Intn(3)],
				Order:    workload.Order(rng.Intn(3)),
				KeyLens:  workload.NaturalLanguage(rng.Intn(3)),
				Seed:     seed + int64(i),
			})
		}
		if _, err := cl.Run(job); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
	// A regression seed that once exposed a fault-handling bug.
	if !prop(2355223179251328692) {
		t.Fatal("regression seed failed")
	}
}
