package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricDef names one reported number. BENCHMARK.json lists the same names,
// units, directions and bounds; bench_test.go keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression (0 for
	// per-layer metrics, which have none).
	Bound float64
}

// endToEnd is what a user of the simulator sees, per workload. The host-time
// half is what running the simulator costs; the sim_ half is what the modelled
// ASK deployment achieves.
//
// Bounds are set from measured run-to-run spread on the 2-vCPU sandbox, each
// at least three times the inter-quartile distance of ten runs on ten seeds
// (README.md, "Bounds and steadiness"). The host changes level by 5–15% for
// minutes at a time, so the timings carry the widest bound the benchmark
// contract allows. The sim_ metrics repeat exactly for a given seed —
// -check-repeat demands identical records — and their bounds only cover how
// much the inputs of different seeds differ. Virtual durations carry the unit
// sim_ms so nobody reads them as wall time.
var endToEnd = []metricDef{
	{"host_tuples_per_s", "1/s", "higher", 0.25},
	{"cpu_s_per_mtuple", "s/Mtuple", "lower", 0.25},
	{"allocs_per_tuple", "1/tuple", "lower", 0.03},
	{"alloc_bytes_per_tuple", "B/tuple", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"sim_akv_per_s", "1/s", "higher", 0.05},
	{"sim_jct_ms", "sim_ms", "lower", 0.05},
	{"sim_absorb_ratio", "ratio", "higher", 0.05},
	{"sim_wire_bytes_per_tuple", "B/tuple", "lower", 0.03},
	{"sim_receiver_cpu_ms", "sim_ms", "lower", 0.10},
}

// hostTime reports whether an end-to-end metric is a host measurement (it
// carries a spread and can be unresolved) rather than a simulated one.
func hostTime(name string) bool { return !strings.HasPrefix(name, "sim_") }

// perLayer is every single-layer number of a -trace 1 run: micro-timings
// (layers.go), exact counts (counts.go), host-time shares (profile.go) and
// boundary spans (spans.go).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, m := range microBenchmarks {
		defs = append(defs, metricDef{Name: m.name, Unit: m.unit, Better: "lower"})
		if m.allocs != "" {
			defs = append(defs, metricDef{Name: m.allocs, Unit: "1/op", Better: "lower"})
		}
	}
	for _, name := range countNames {
		unit := "count"
		switch name {
		case "hostd.slot_fill":
			unit = "slots/packet"
		case "cpumodel.sender_busy_ms":
			unit = "sim_ms"
		case "netsim.wire_bytes":
			unit = "B"
		}
		// Counts describe the run; whether more is better depends on the
		// change, so the direction only says which way wasted work points.
		better := "lower"
		if name == "switchd.tuples_absorbed" || name == "hostd.slot_fill" || name == "sim.shard_parallel_windows" {
			better = "higher"
		}
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, b := range shareBuckets {
		defs = append(defs, metricDef{Name: "share." + b, Unit: "ratio", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "gc.cycles", Unit: "1/rep", Better: "lower"},
		metricDef{Name: "gc.pause_ms", Unit: "ms/rep", Better: "lower"},
	)
	for _, name := range spanMetrics {
		defs = append(defs, metricDef{Name: name, Unit: "ns/packet", Better: "lower"})
	}
	defs = append(defs, metricDef{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"})
	return defs
}()

// value is one reported metric. Host-time metrics carry the spread over the
// timed reps; Unresolved says why a number must not be compared.
type value struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Spread     *spread `json:"spread,omitempty"`
	Unresolved string  `json:"unresolved,omitempty"`
}

// hostInfo records where a report was taken; numbers from different hosts are
// not comparable.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

// report is the full outcome of one workload run, written as the "record:"
// line and collected into the result files under bench/results/.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Host      hostInfo         `json:"host"`
	Reps      int              `json:"reps"`
	Tuples    int64            `json:"tuples"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Sim       simRecord        `json:"sim"`
	Metrics   map[string]value `json:"metrics"`
	// RepWallS is the wall time of every timed rep's timed region, in the
	// order taken, so that a reader can see what the summary was made from.
	RepWallS []float64 `json:"rep_wall_s,omitempty"`
}

// print writes the human-readable table: every metric by name with its unit,
// the spread where there is one, and every failure line.
func (r *report) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "workload %s  seed %d  reps %d  tuples %d  tasks %d/%d ok  task_fail_ratio %g\n",
		r.Workload, r.Seed, r.Reps, r.Tuples, r.Attempted-r.Failed, r.Attempted,
		float64(r.Failed)/float64(max(r.Attempted, 1)))
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d %s %q commit=%s\n",
		r.Host.NProc, r.Host.GOMAXPROCS, r.Host.GoVersion, r.Host.CPUModel, r.Host.Commit)
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-12s", d.Name, v.Value, v.Unit)
		if s := v.Spread; s != nil {
			fmt.Fprintf(w, " min %.6g q1 %.6g q3 %.6g max %.6g", s.Min, s.Q1, s.Q3, s.Max)
		}
		if v.Unresolved != "" {
			fmt.Fprintf(w, "  unresolved: %s", v.Unresolved)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, f)
	}
}

// driverLine is the one-line result the benchmark contract asks for: exactly
// correct/attempted/failed/metrics, each metric as {value, unit}.
func (r *report) driverLine(defs []metricDef) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]mv, len(defs))}
	for _, d := range defs {
		v := r.Metrics[d.Name]
		out.Metrics[d.Name] = mv{v.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}
