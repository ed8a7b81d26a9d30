package ask

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// windowJobs cuts each source into n tumbling windows of size tuples and
// returns one job per window, task IDs from base on: the windowed stream
// aggregation of §2.1.3 over the service. Source i streams from host i+1 to
// host 0. A source that runs dry leaves its later windows short or empty.
func windowJobs(base core.TaskID, n, size int, sources ...core.Stream) []*Job {
	jobs := make([]*Job, n)
	for w := range jobs {
		jobs[w] = NewJob(core.TaskSpec{ID: base + core.TaskID(w), Receiver: 0, Op: core.OpSum})
		for h, src := range sources {
			win := make(kvs, 0, size)
			for len(win) < size {
				kv, ok := src()
				if !ok {
					break
				}
				win = append(win, kv)
			}
			jobs[w].Send(core.HostID(h+1), win)
		}
	}
	return jobs
}

func TestStreamingWindowsExact(t *testing.T) {
	cl, err := NewCluster(Options{Hosts: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded sources (large enough for every window) with skewed keys.
	src1 := workload.Zipf(512, 1<<20, 1.2, workload.Shuffled, 1)
	src2 := workload.Zipf(512, 1<<20, 1.2, workload.Shuffled, 2)
	results, err := cl.Run(windowJobs(100, 4, 4000, src1.Stream(), src2.Stream())...)
	if err != nil {
		t.Fatal(err)
	}
	// Independent reference copies, windowed by hand: each window holds the
	// next 4000 tuples of every source, so the windows partition the sources.
	ref1, ref2 := src1.Stream(), src2.Stream()
	for w, res := range results {
		want := make(core.Result)
		for i := 0; i < 4000; i++ {
			kv, _ := ref1()
			want.MergeKV(kv, core.OpSum)
			kv, _ = ref2()
			want.MergeKV(kv, core.OpSum)
		}
		if !res.Result.Equal(want) {
			t.Fatalf("window %d wrong: %s", w, res.Result.Diff(want, 8))
		}
		if res.Elapsed <= 0 {
			t.Fatalf("window %d took no virtual time", w)
		}
	}
}

func TestStreamingUnderLoss(t *testing.T) {
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.03
	link.Fault.ReorderProb = 0.05
	link.Fault.ReorderDelay = 25 * time.Microsecond
	cl, err := NewCluster(Options{Hosts: 2, Seed: 32, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	src := workload.Uniform(256, 1<<20, 3)
	if _, err := cl.Run(windowJobs(1, 3, 2500, src.Stream())...); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingShortSource(t *testing.T) {
	// A source shorter than windows × window size yields empty tail
	// windows rather than failing.
	cl, err := NewCluster(Options{Hosts: 2, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	src := core.SliceStream([]core.KV{{Key: "a", Val: 1}, {Key: "b", Val: 2}, {Key: "a", Val: 3}})
	results, err := cl.Run(windowJobs(1, 3, 2, src)...)
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Result.Equal(core.Result{"a": 1, "b": 2}) {
		t.Fatalf("window 0 = %v", results[0].Result)
	}
	if !results[1].Result.Equal(core.Result{"a": 3}) {
		t.Fatalf("window 1 = %v", results[1].Result)
	}
	if len(results[2].Result) != 0 {
		t.Fatalf("window 2 = %v, want empty", results[2].Result)
	}
}

func TestStreamingValidation(t *testing.T) {
	// A malformed window is refused before anything runs, naming its task.
	cl, err := NewCluster(Options{Hosts: 2, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	noSources := windowJobs(1, 1, 1)[0]
	noStream := &Job{Spec: core.TaskSpec{ID: 2, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum}}
	offRack := windowJobs(3, 1, 1, core.SliceStream(nil), core.SliceStream(nil))[0]
	for _, j := range []*Job{noSources, noStream, offRack} {
		if _, err := cl.Run(j); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("task %d", j.Spec.ID)) {
			t.Errorf("task %d: err = %v, want a refusal naming it", j.Spec.ID, err)
		}
	}
}
