// Command askbench regenerates the paper's evaluation tables and figures
// (§5) on the simulated substrate.
//
// Usage:
//
//	askbench -list
//	askbench -run fig9
//	askbench -run scenarios -quick      # whole scenario corpus
//	askbench -run scenario:flash-crowd  # one corpus scenario
//	askbench -run all -quick
//	askbench -run all -json > results.json
//
// Each experiment prints the same rows/series the paper reports; -quick
// runs the test scale (seconds instead of minutes). The listing (-list, or
// no -run) takes no other flag: -run, -quick or -json beside it exits 1
// rather than being ignored.
//
// Independent experiments run on a worker pool, one worker per CPU. Every
// simulation is single-goroutine deterministic and shares no state with its
// siblings, so the output is byte-identical to a serial run (outcomes are
// printed in registry order regardless of completion order); only the wall
// clock shrinks. -json emits the outcomes as deterministic JSON instead of
// the human-readable tables: a function of the code, the experiment and the
// scale alone, so two runs are byte-identical and `-run all -quick -json`
// equals the committed internal/experiments/testdata/quick.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		run     = flag.String("run", "", "experiment to run ('all', or scenario:<name> for one corpus scenario, see askgen -list-scenarios)")
		quick   = flag.Bool("quick", false, "run at test scale")
		list    = flag.Bool("list", false, "list available experiments")
		jsonOut = flag.Bool("json", false, "emit outcomes as deterministic JSON instead of tables")
	)
	flag.Parse()

	if *list || *run == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "list" {
				fail("askbench: -%s does not apply to the experiment listing", f.Name)
			}
		})
		fmt.Println("Available experiments:")
		for _, r := range experiments.All() {
			fmt.Printf("  %-16s %s\n", r.Name, r.Desc)
		}
		fmt.Println("\nRun one with: askbench -run <name> [-quick] [-json]")
		return
	}

	runners := experiments.All()
	if *run != "all" {
		r, err := experiments.ByName(*run)
		if err != nil {
			fail("%v", err)
		}
		runners = []experiments.Runner{r}
	}

	start := time.Now()
	outcomes := experiments.RunParallel(runners, *quick, runtime.NumCPU())

	failed := false
	if *jsonOut {
		b, err := experiments.OutcomesJSON(outcomes)
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(b)
		for _, o := range outcomes {
			failed = failed || o.Err != ""
		}
	} else {
		for _, o := range outcomes {
			if o.Err != "" {
				fmt.Fprintf(os.Stderr, "%s: %s\n", o.Name, o.Err)
				failed = true
				continue
			}
			for _, t := range o.Tables {
				fmt.Println(t.String())
			}
		}
		fmt.Printf("(%d experiment(s) completed in %v wall time)\n",
			len(outcomes), time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
