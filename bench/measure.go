package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/ask"
	"repro/internal/sim"
)

// simLimit bounds every Sim.Run in virtual time. The slowest workload
// finishes in under a virtual second; a run that reaches the limit leaves its
// tasks incomplete, which is counted as a failure instead of hanging.
const simLimit = sim.Time(60 * time.Second)

// exec runs every task of the job on a fresh cluster: first start → Sim.Run →
// last Get. This is the timed region of a rep; the returned duration is the
// wall time of Sim.Run alone, which the span metrics attribute.
func (j *job) exec(c *cluster) ([]*ask.TaskResult, []error, time.Duration) {
	results := make([]*ask.TaskResult, len(j.tasks))
	errs := make([]error, len(j.tasks))
	gets := make([]func() (*ask.TaskResult, error), len(j.tasks))
	for i, t := range j.tasks {
		gets[i], errs[i] = c.start(t)
	}
	t0 := time.Now()
	c.sim.Run(simLimit)
	run := time.Since(t0)
	for i, get := range gets {
		if get != nil {
			results[i], errs[i] = get()
		}
	}
	return results, errs, run
}

// checker counts task outcomes against the oracle and the first rep's
// simulated record, and keeps the failure lines.
type checker struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	failures  []string
	// first is the simulated record every later rep must reproduce.
	first *simRecord
}

func (k *checker) fail(rep int, n int, format string, args ...any) {
	k.failed += n
	k.failures = append(k.failures, fmt.Sprintf("FAIL workload=%s seed=%d rep=%d: %s",
		k.workload, k.seed, rep, fmt.Sprintf(format, args...)))
}

// check verifies one rep: each task must have completed without error and
// equal the oracle, and the rep's simulated record must equal the first
// rep's. It returns the record (zero when a task did not complete).
func (k *checker) check(rep int, j *job, c *cluster, results []*ask.TaskResult, errs []error) simRecord {
	k.attempted += len(j.tasks)
	complete := true
	for i, t := range j.tasks {
		switch {
		case errs[i] != nil:
			complete = false
			k.fail(rep, 1, "task %d: %v", t.spec.ID, errs[i])
		case results[i] == nil:
			complete = false
			k.fail(rep, 1, "task %d: no result", t.spec.ID)
		default:
			if got := results[i].Result; !got.Equal(t.want) {
				k.fail(rep, 1, "task %d differs from the keyed reduce (got vs want): %s", t.spec.ID, got.Diff(t.want, 5))
			}
		}
	}
	if !complete {
		return simRecord{}
	}
	rec := c.record(j, results)
	if k.first == nil {
		k.first = &rec
	} else if d := k.first.diff(rec, false); d != "" {
		k.fail(rep, len(j.tasks), "simulated record differs from the first rep: %s", d)
	}
	return rec
}

// hostSample is what one timed rep cost the host.
type hostSample struct {
	wallS, cpuS         float64
	runS                float64 // Sim.Run alone
	mallocs, allocBytes float64
	buildS              float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedRep builds a fresh cluster (set-up), then runs and samples the timed
// region. With gcOn the heap is collected once before the region and the
// collector stays on: the warm-up and the profiled reps, where its share is
// what is being looked at. Without it — every end-to-end rep — the heap is
// collected twice, so the rep starts from empty sync.Pools (the first
// collection only demotes a pool to its victim cache), and the collector is
// off during the region. A finished cluster is never freed, so the live heap
// grows with every rep and, with it, the collector's trigger: left on, it
// runs less often the more reps came before (rack-residue: 0.90 s on rep 1,
// 0.69 s on rep 12), every cycle empties the wire packet pools, and the
// allocation count of a rep swings by 4% with the number of cycles it
// happened to see. Off, every rep does the same work from the same state.
func timedRep(j *job, build func() (*cluster, error), gcOn bool) (*cluster, []*ask.TaskResult, []error, hostSample, error) {
	var hs hostSample
	t0 := time.Now()
	c, err := build()
	if err != nil {
		return nil, nil, nil, hs, err
	}
	hs.buildS = time.Since(t0).Seconds()
	runtime.GC()
	if !gcOn {
		runtime.GC()
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	results, errs, run := j.exec(c)
	hs.wallS, hs.runS = time.Since(t1).Seconds(), run.Seconds()
	hs.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	hs.mallocs = float64(m1.Mallocs - m0.Mallocs)
	hs.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	return c, results, errs, hs, nil
}

// pinProcs sets GOMAXPROCS to the number of event lanes a job runs — 1 for
// every serial workload — and returns the function that restores it. A proc
// hand-off between two OS threads costs a futex wake whose latency depends on
// what else the host's cores are doing; on one thread it is a goroutine
// switch. On the shared 2-vCPU sandbox that is the difference between runs
// that agree within a few percent and runs 35% apart, and the one-thread run
// is 1.6× faster besides. A job with more lanes than the host has CPUs is
// left alone; its timings are marked unresolved anyway.
func pinProcs(lanes int) (restore func()) {
	if lanes > runtime.NumCPU() {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(lanes)
	return func() { runtime.GOMAXPROCS(prev) }
}

// spread is the five-number summary of a metric over the timed reps.
type spread struct {
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize computes min/quartiles/max; quartiles follow Python's
// statistics.quantiles(n=4) (exclusive method), the rule the acceptance
// check uses, so the numbers here and there agree.
func summarize(xs []float64) spread {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	if n == 1 {
		return spread{s[0], s[0], s[0], s[0], s[0]}
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return spread{Min: s[0], Q1: q(1), Median: q(2), Q3: q(3), Max: s[n-1]}
}

// fastDecile is the time a tenth of the reps beat: the (n/10+1)th smallest.
// One thread doing the same work from the same state takes the same time
// unless the host interferes, and interference only ever adds: neighbours on
// the shared host slow a run by up to 30% for tens of seconds at a time. The
// fast end of the reps is therefore the steady estimate of what the code
// costs; the fastest rep alone would let one lucky sample decide.
func fastDecile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/10]
}
