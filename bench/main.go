// Command bench is the repository's benchmark: six workloads over the rack and
// fat-tree deployments, measured end to end (host time and simulated time) and
// layer by layer (micro-timings, exact counts, CPU-profile shares and spans at
// the layer boundaries). See README.md in this directory.
//
//	go run ./bench                         every workload, end to end
//	go run ./bench -trace 1                every workload, per layer
//	go run ./bench -workload rack-absorb   one workload in this process
//	go run ./bench -check-repeat           two sets of runs, compared, written to bench/results/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

func main() {
	testing.Init() // registers -test.benchtime, which layers.go sets for testing.Benchmark
	workload := flag.String("workload", "", "run only this workload, in this process (default: each workload in a child process)")
	seed := flag.Int64("seed", 1, "inputs are generated from this seed; equal seeds give equal inputs")
	seconds := flag.Int("seconds", runLength, "how long one workload measures, after set-up and warm-up")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from traced reps")
	checkRepeat := flag.Bool("check-repeat", false, "take two sets of runs of every workload, compare their medians against the bounds, write both to bench/results/")
	out := flag.String("out", "", "with no -workload: also write the collected reports to this JSON file")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, minReps: 5}

	switch {
	case *checkRepeat:
		if err := runCheckRepeat(cfg); err != nil {
			fatal(err)
		}
	case *workload == "":
		set, err := runAll(cfg, *trace)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeSet(*out, set); err != nil {
				fatal(err)
			}
		}
		if set.failed() {
			os.Exit(1)
		}
	default:
		def, err := workloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		var rep *report
		defs := endToEnd
		if *trace != 0 {
			defs = perLayer
			rep, err = runTraced(def, cfg)
		} else {
			rep, err = runEndToEnd(def, cfg)
		}
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout, defs)
		full, err := json.Marshal(rep)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s%s\n", recordPrefix, full)
		fmt.Println(rep.driverLine(defs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
