package ask

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

// settleGoroutines waits for goroutines unwound by Simulation.Close to be
// gone: each has handed control back slightly before it exits.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > want && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > want {
		t.Fatalf("%d goroutines before, %d after Close: finished clusters are still pinned", want, n)
	}
}

// TestCloseReleasesFinishedClusters is the leak regression: every sim.Proc is
// a goroutine parked on a channel, so a finished cluster that is merely
// dropped is never collected (≈ 36 goroutines and 10 MB per 4-host rack).
// Twenty racks and twenty sharded fat-trees, built, run and closed, must
// leave the goroutine count where it started.
func TestCloseReleasesFinishedClusters(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		cl, err := NewCluster(Options{Hosts: 4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		w := workload.Uniform(128, 2000, int64(i))
		job := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
		job.Send(1, w)
		job.Send(2, w)
		runJob(t, &cl.Deployment, job)
		cl.Sim.Close()

		opts := FatTreeOptions{Spines: 2, Leaves: 4, HostsPerLeaf: 2, Seed: int64(i), Shards: 4}
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		job = NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
		job.Send(opts.HostAt(1, 0), w)
		job.Send(opts.HostAt(3, 1), w)
		runJob(t, &fc.Deployment, job)
		fc.Sim.Close()
	}
	settleGoroutines(t, before)
}

// TestCloseMidRecovery closes deployments whose task is still in flight and
// degraded — a sender's leaf is down, its daemons sit in probe back-off,
// retransmission timers are armed, the driver is parked in Wait — and
// requires that it neither panics nor hangs, serial and sharded.
func TestCloseMidRecovery(t *testing.T) {
	scale := ftGoldenScale(t, ftFailoverOptions(5)) // leaves its own cluster behind
	before := runtime.NumGoroutine()
	for _, shards := range []int{0, 4} {
		opts := ftFailoverOptions(5)
		opts.Shards = shards
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		job := ftFailoverWorkload(opts)
		fc.Sim.At(sim.Time(0).Add(scale*2/5), func() {
			if err := fc.CrashSwitch(netsim.LeafAddr(1)); err != nil {
				t.Error(err)
			}
		})
		if err := fc.Start(job); err != nil {
			t.Fatal(err)
		}
		fc.Sim.Run(sim.Time(0).Add(10 * scale)) // the leaf never comes back; three probe misses take ≈ 1.7 ms
		if _, err := job.Result(); err == nil {
			t.Fatalf("shards=%d: task finished; the outage window missed the stream", shards)
		}
		degraded := false
		for _, h := range fc.Hosts() {
			degraded = degraded || fc.Daemon(h).Degraded()
		}
		if !degraded {
			t.Fatalf("shards=%d: no daemon is degraded at the cut; retune the window", shards)
		}
		fc.Sim.Close()
		fc.Sim.Close()
	}
	settleGoroutines(t, before)
}
