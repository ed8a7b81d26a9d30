package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is what one workload run is taken with.
type runConfig struct {
	seed    int64
	seconds int     // how long the timed reps (or the traced reps) may run
	scale   float64 // tuple-count multiplier; 1 is the benchmark
	minReps int
}

// setupRounds is how many times the inputs and their reference are generated;
// setup_s reports the median so one slow page-fault storm does not set it.
const setupRounds = 5

// prepare generates the workload's inputs setupRounds times and returns the
// last job with the median generation time. It runs on one thread, like the
// reps: how much a second vCPU helps the collector is the host's to decide.
func prepare(def workloadDef, cfg runConfig) (*job, float64, error) {
	defer pinProcs(1)()
	var j *job
	var gen []float64
	for i := 0; i < setupRounds; i++ {
		j = nil // drop the previous copy before building the next
		runtime.GC()
		t0 := time.Now()
		var err error
		if j, err = def.make(cfg.seed, cfg.scale); err != nil {
			return nil, 0, err
		}
		gen = append(gen, time.Since(t0).Seconds())
	}
	return j, summarize(gen).Median, nil
}

// runEndToEnd measures one workload with tracing off: inputs and reference,
// one warm-up rep, the serial-twin check where the workload has one, then
// timed reps on fresh clusters until cfg.seconds have passed.
func runEndToEnd(def workloadDef, cfg runConfig) (*report, error) {
	j, genS, err := prepare(def, cfg)
	if err != nil {
		return nil, err
	}
	defer pinProcs(j.lanes)()
	k := &checker{workload: def.name, seed: cfg.seed}
	rep := &report{Workload: def.name, Seed: cfg.seed, Host: readHostInfo(), Tuples: j.tuples}

	// Warm-up (rep 0): fills caches, and fixes the record every timed rep
	// must reproduce.
	c, results, errs, _, err := timedRep(j, j.build, true)
	if err != nil {
		return nil, err
	}
	rep.Sim = k.check(0, j, c, results, errs)
	// Peak RSS is read here, after a fixed amount of work. A cluster is never
	// released — its procs are goroutines parked for good, which pin it — so
	// the high-water mark afterwards grows with the number of reps, and that
	// depends on how fast the host is.
	peakMB := peakRSSMB()
	if j.twin != nil {
		tc, tres, terrs, _, err := timedRep(j, j.twin, true)
		if err != nil {
			return nil, err
		}
		twin := (&checker{workload: def.name + "(serial twin)", seed: cfg.seed}).check(0, j, tc, tres, terrs)
		k.attempted += len(j.tasks)
		if d := rep.Sim.diff(twin, true); d != "" {
			k.fail(0, len(j.tasks), "diverges from the serial scheduler: %s", d)
		}
	}

	var samples []hostSample
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for n := 1; n <= cfg.minReps || time.Now().Before(deadline); n++ {
		c, results, errs, hs, err := timedRep(j, j.build, false)
		if err != nil {
			return nil, err
		}
		k.check(n, j, c, results, errs)
		samples = append(samples, hs)
	}

	rep.Reps = len(samples)
	for _, s := range samples {
		rep.RepWallS = append(rep.RepWallS, s.wallS)
	}
	rep.Attempted, rep.Failed, rep.Failures = k.attempted, k.failed, k.failures
	rep.Metrics = endToEndMetrics(j, rep.Sim, samples, genS, peakMB)
	if j.lanes > runtime.NumCPU() {
		for name, v := range rep.Metrics {
			if hostTime(name) {
				v.Unresolved = fmt.Sprintf("%d lanes on %d CPUs", j.lanes, runtime.NumCPU())
				rep.Metrics[name] = v
			}
		}
	}
	return rep, nil
}

// endToEndMetrics turns the timed reps and the simulated record into the
// end-to-end metrics. The two timings are taken at the fast decile of the
// reps (see fastDecile), the allocation counts and set-up at the median; all
// carry the five-number summary over the reps, and a timing is marked
// unresolved when its own inter-quartile distance exceeds the bound.
func endToEndMetrics(j *job, rec simRecord, samples []hostSample, genS, peakMB float64) map[string]value {
	tuples := float64(j.tuples)
	var wall, cpu []float64
	series := map[string][]float64{}
	for _, s := range samples {
		wall, cpu = append(wall, s.wallS), append(cpu, s.cpuS)
		series["host_tuples_per_s"] = append(series["host_tuples_per_s"], tuples/s.wallS)
		series["cpu_s_per_mtuple"] = append(series["cpu_s_per_mtuple"], s.cpuS/(tuples/1e6))
		series["allocs_per_tuple"] = append(series["allocs_per_tuple"], s.mallocs/tuples)
		series["alloc_bytes_per_tuple"] = append(series["alloc_bytes_per_tuple"], s.allocBytes/tuples)
		series["setup_s"] = append(series["setup_s"], genS+s.buildS)
	}
	jctS := float64(rec.JCTNs) / 1e9
	single := map[string]float64{
		"host_tuples_per_s":        tuples / fastDecile(wall),
		"cpu_s_per_mtuple":         fastDecile(cpu) / (tuples / 1e6),
		"peak_rss_mb":              peakMB,
		"sim_jct_ms":               jctS * 1e3,
		"sim_absorb_ratio":         rec.Counts["switchd.tuples_absorbed"] / tuples,
		"sim_wire_bytes_per_tuple": float64(rec.SenderWireBytes) / tuples,
		"sim_receiver_cpu_ms":      float64(rec.ReceiverBusyNs) / 1e6,
	}
	if jctS > 0 {
		single["sim_akv_per_s"] = tuples / jctS
	}
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		v := value{Unit: d.Unit}
		if xs, ok := series[d.Name]; ok {
			s := summarize(xs)
			v.Value, v.Spread = s.Median, &s
			if s.Median > 0 && (s.Q3-s.Q1)/s.Median > d.Bound {
				v.Unresolved = fmt.Sprintf("inter-quartile distance %.1f%% of the median exceeds the %.0f%% bound",
					100*(s.Q3-s.Q1)/s.Median, 100*d.Bound)
			}
		}
		if x, ok := single[d.Name]; ok {
			v.Value = x
		}
		out[d.Name] = v
	}
	return out
}
