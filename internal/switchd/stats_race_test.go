package switchd

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// TestTaskStatsOfConcurrent hammers the per-task stats view from reader
// goroutines while the simulation goroutine drives ingress. Run under
// go test -race: before the stats moved onto registry-backed atomic
// counters, TaskStatsOf handed back a pointer the ingress path kept
// mutating, so any off-thread observer (a monitoring scraper, the ask
// driver reading a finished task while another task runs) raced.
func TestTaskStatsOfConcurrent(t *testing.T) {
	r := newRig(t, smallConfig())
	r.mustAlloc(7, 16)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				ts := r.sw.TaskStatsOf(7)
				if ts.TuplesAggregated > ts.TuplesIn {
					t.Error("aggregated > in")
					return
				}
				_ = r.sw.Stats()
				_ = r.sw.reg.Total("switchd.tuples_in")
			}
		}()
	}

	keys := []string{"aaaa", "bbbb", "cccc", "dddd"}
	for i := 0; i < 300; i++ {
		for _, k := range keys {
			r.send(r.packetize(7, []core.KV{{Key: k, Val: 1}}))
		}
	}
	stop.Store(true)
	wg.Wait()

	ts := r.sw.TaskStatsOf(7)
	if ts.TuplesIn != int64(300*len(keys)) {
		t.Fatalf("TuplesIn = %d, want %d", ts.TuplesIn, 300*len(keys))
	}
	// Re-allocation resets the task view (base subtraction) while the
	// underlying registry counters stay monotonic.
	if err := r.sw.FreeRegion(7); err != nil {
		t.Fatal(err)
	}
	r.mustAlloc(7, 16)
	if ts2 := r.sw.TaskStatsOf(7); ts2.TuplesIn != 0 {
		t.Fatalf("TaskStatsOf after re-alloc = %d, want 0 (reset view)", ts2.TuplesIn)
	}
	if total := r.sw.reg.Total("switchd.tuples_in"); total != int64(300*len(keys)) {
		t.Fatalf("registry total = %d, want monotonic %d", total, 300*len(keys))
	}
}
