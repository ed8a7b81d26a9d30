package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"
)

// runTraced produces the per-layer numbers of one workload. The seconds
// budget is split between the layer micro-timings and reps under the CPU
// profiler; around those run one warm-up rep, one plain rep (the untraced
// wall time) and, on rack workloads, one rep on the span-recording wiring.
// Every rep is checked against the oracle and the first rep's record.
func runTraced(def workloadDef, cfg runConfig) (*report, error) {
	j, err := def.make(cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	defer pinProcs(j.lanes)()
	k := &checker{workload: def.name, seed: cfg.seed}
	rep := &report{Workload: def.name, Seed: cfg.seed, Trace: true, Host: readHostInfo(), Tuples: j.tuples}
	vals := make(map[string]float64)
	budget := time.Duration(cfg.seconds) * time.Second

	micro, err := runMicro(budget * 3 / 10 / time.Duration(len(microBenchmarks)))
	if err != nil {
		return nil, err
	}
	for name, v := range micro {
		vals[name] = v
	}

	reps := 0
	plainRep := func() (float64, error) {
		c, results, errs, hs, err := timedRep(j, j.build, true)
		if err != nil {
			return 0, err
		}
		rec := k.check(reps, j, c, results, errs)
		if reps == 0 {
			rep.Sim = rec
		}
		reps++
		return hs.runS, nil
	}
	if _, err := plainRep(); err != nil { // warm-up
		return nil, err
	}
	plainRunS, err := plainRep()
	if err != nil {
		return nil, err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	profiled, profiledRunS := 0, 0.0
	shares, err := profileShares(func() error {
		deadline := time.Now().Add(budget * 4 / 10)
		for profiled == 0 || time.Now().Before(deadline) {
			runS, err := plainRep()
			if err != nil {
				return err
			}
			profiled++
			profiledRunS += runS
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	for b, s := range shares {
		vals["share."+b] = s
	}
	vals["gc.cycles"] = float64(m1.NumGC-m0.NumGC) / float64(profiled)
	vals["gc.pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / float64(profiled)
	// On the fat-tree the profiler is the only instrumentation; on a rack the
	// span rep below replaces this with the span-recording wiring's cost.
	vals["trace.overhead_ratio"] = profiledRunS / float64(profiled) / plainRunS

	if j.traced != nil {
		log := newSpanLog()
		c, results, errs, hs, err := timedRep(j, func() (*cluster, error) { return j.traced(log) }, true)
		if err != nil {
			return nil, err
		}
		// The span wiring is the benchmark's own copy of ask.NewCluster; its
		// numbers only count if it simulates exactly what ask.NewCluster does.
		before := k.failed
		k.check(reps, j, c, results, errs)
		reps++
		if k.failed == before {
			for name, v := range log.metrics(time.Duration(hs.runS * float64(time.Second))) {
				vals[name] = v
			}
			vals["trace.overhead_ratio"] = hs.runS / plainRunS
		}
	}

	for name, v := range rep.Sim.Counts {
		vals[name] = v
	}
	rep.Reps = reps
	rep.Attempted, rep.Failed, rep.Failures = k.attempted, k.failed, k.failures
	rep.Metrics = make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		v := value{Value: vals[d.Name], Unit: d.Unit}
		hostTimed := strings.HasPrefix(d.Name, "share.") || strings.HasPrefix(d.Name, "span.") ||
			strings.HasPrefix(d.Name, "trace.") || strings.HasPrefix(d.Name, "gc.")
		if hostTimed && j.lanes > runtime.NumCPU() {
			v.Unresolved = fmt.Sprintf("%d lanes on %d CPUs", j.lanes, runtime.NumCPU())
		}
		rep.Metrics[d.Name] = v
	}
	return rep, nil
}
