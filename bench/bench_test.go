package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// testConfig runs a workload at 1/100 scale: one timed rep, no time budget.
var testConfig = runConfig{seed: 1, seconds: 0, scale: 0.01, minReps: 1}

// TestWorkloadsEndToEnd runs every workload once, small: every task must match
// the oracle, every rep the first rep's record, the sharded fat-tree its
// serial twin, and every end-to-end metric must come out as a positive number.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			rep, err := runEndToEnd(def, testConfig)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%d of %d tasks failed:\n%s", rep.Failed, rep.Attempted, strings.Join(rep.Failures, "\n"))
			}
			if rep.Reps != 1 {
				t.Errorf("reps = %d, want 1", rep.Reps)
			}
			for _, d := range endToEnd {
				v, ok := rep.Metrics[d.Name]
				if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, v.Value)
				}
			}
			if line := rep.driverLine(endToEnd); !strings.HasPrefix(line, `{"correct":true,"attempted":`) {
				t.Errorf("driver line %q", line)
			}
		})
	}
}

// TestTracedRack runs the per-layer path on one rack workload: the span wiring
// must reproduce ask.NewCluster's record (else the rep counts as failed), every
// per-layer metric must be present, and the span times must add up to the run.
func TestTracedRack(t *testing.T) {
	def, err := workloadByName("rack-residue")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runTraced(def, testConfig)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d tasks failed:\n%s", rep.Failed, strings.Join(rep.Failures, "\n"))
	}
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.Name]; !ok {
			t.Errorf("per-layer metric %s missing", d.Name)
		}
	}
	for _, name := range spanMetrics {
		if v := rep.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	var sum float64
	for _, b := range shareBuckets {
		sum += rep.Metrics["share."+b].Value
	}
	if sum != 0 && math.Abs(sum-1) > 0.01 { // 0: the rep was too short to be sampled
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	// ingress [0,100) ⊃ switch send [10,30); host send [200,250) on its own.
	l := &spanLog{spans: []span{
		{kind: spanSwitchIngress, parent: -1, start: 0, end: 100},
		{kind: spanSwitchSend, parent: 0, start: 10, end: 30},
		{kind: spanHostSend, parent: -1, start: 200, end: 250},
	}}
	got := l.metrics(1000)
	want := map[string]float64{
		"span.switchd_ingress_self_ns": 80, "span.hostd_rx_self_ns": 0,
		"span.netsim_send_ns": 70, "span.run_residual_ns": 850,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("span metrics %v, want %v", got, want)
	}
}

// cannedTraces is `go tool pprof -traces` output: one sample per bucketing
// rule that matters (innermost repo frame wins; runtime-only stacks go by
// function family).
const cannedTraces = `File: bench
Type: cpu
Time: 2026-09-25 22:48:23 UTC
Duration: 1.41s, Total samples = 100ms (7.09%)
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.futexsleep
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
      20ms   runtime.chanrecv
             runtime.chanrecv1
             repro/internal/sim.(*Proc).park
             repro/internal/sim.(*Proc).Sleep (inline)
             repro/internal/cpumodel.(*Thread).Run
             repro/internal/hostd.(*dataChannel).txLoop
             repro/internal/sim.(*Simulation).Spawn.func1
-----------+-------------------------------------------------------
      30ms   runtime.mallocgc
             runtime.newobject
             repro/internal/hostd.(*packetizer).emitData
             repro/internal/hostd.(*dataChannel).txLoop
             repro/internal/sim.(*Simulation).Spawn.func1
-----------+-------------------------------------------------------
      10ms   repro/internal/sim.(*Simulation).heapPop
             repro/internal/sim.(*Simulation).Run
             main.(*job).exec
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
      10ms   repro/internal/pisa.(*RegisterArray).RMW
             repro/internal/switchd.(*Switch).slotRMW
             repro/internal/switchd.(*Switch).HandleIngress
             repro/internal/sim.(*Simulation).execOne
             repro/internal/sim.(*Simulation).window
-----------+-------------------------------------------------------
      10ms   repro/internal/sim.(*ShardGroup).drainInjects
             repro/internal/sim.(*ShardGroup).run
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"proc_switch": 0.3, "hostd": 0.3, "sim_kernel": 0.1, "runtime_gc": 0.1, "pisa": 0.1, "sim_shard": 0.1}
	var sum float64
	for _, b := range shareBuckets {
		sum += got[b]
		if math.Abs(got[b]-want[b]) > 1e-9 {
			t.Errorf("share.%s = %v, want %v", b, got[b], want[b])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

// TestSummarizeMatchesPython pins the quartile rule to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestSummarizeMatchesPython(t *testing.T) {
	got := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	want := spread{Min: 1, Q1: 2.75, Median: 5.5, Q3: 8.25, Max: 10}
	if got != want {
		t.Errorf("summarize = %+v, want %+v", got, want)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the emitter in step: same
// workloads, same metrics with the same units, directions and bounds, names
// and units within the contract's alphabets and counts within its limits.
func TestBenchmarkJSON(t *testing.T) {
	var want benchmarkFile
	want.Command = []string{"bash", "bench/run.sh"}
	want.Paths = []string{"bench"}
	want.RunSeconds = runLength
	for _, w := range workloads {
		if w.contract {
			want.Workloads = append(want.Workloads, fileWorkload{w.name, w.why})
		}
	}
	for _, d := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, fileEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		want.PerLayer = append(want.PerLayer, filePerLayer{d.Name, d.Unit, d.Better})
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("%v\nexpected content:\n%s", err, wantJSON)
	}
	var got benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the emitter; expected content:\n%s", wantJSON)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is malformed", unit, name)
		}
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters", w.name)
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s outside (0, 0.25]", d.Bound, d.Name)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range perLayer {
		check(d.Name, d.Unit)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(endToEnd), len(perLayer))
	}
}

// TestReadmeNamesEveryMetric keeps the glossary complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !strings.Contains(string(readme), "`"+d.Name+"`") {
				t.Errorf("README.md does not explain %s", d.Name)
			}
		}
	}
	for _, w := range workloads {
		if !strings.Contains(string(readme), "`"+w.name+"`") {
			t.Errorf("README.md does not explain workload %s", w.name)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(tput float64) resultSet {
		m := map[string]value{}
		for _, d := range endToEnd {
			m[d.Name] = value{Value: 100}
		}
		m["host_tuples_per_s"] = value{Value: tput}
		return resultSet{Reports: []*report{{Workload: workloads[0].name, Attempted: 1, Metrics: m}}}
	}
	if misses := compareSets(mk(100), mk(90)); len(misses) != 0 {
		t.Errorf("10%% slower is within the 25%% bound: %v", misses)
	}
	if misses := compareSets(mk(100), mk(60)); len(misses) != 1 {
		t.Errorf("40%% slower must miss once: %v", misses)
	}
	b := mk(100)
	b.Reports[0].Sim.JCTNs = 1
	if misses := compareSets(mk(100), b); len(misses) != 1 {
		t.Errorf("a differing simulated record must miss: %v", misses)
	}
}
