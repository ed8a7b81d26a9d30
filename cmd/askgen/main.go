// Command askgen generates and inspects the key-value stream workloads used
// throughout the evaluation, and records corpus scenarios to timed traces.
//
// Determinism contract: the -seed flag pins every random choice the
// generator makes (key order, values, arrival times). The same flags with
// the same seed always produce byte-identical output — traces are safe to
// regenerate instead of archive, and a seed in a bug report reproduces the
// exact stream. Corpus scenarios (-scenario) carry their own pinned seed;
// -seed overrides it when nonzero.
//
// Examples:
//
//	askgen -dataset yelp -tuples 100000 -out trace.tsv   # write a v1 trace
//	askgen -dataset yelp -tuples 1000000 -stats          # summarize skew/lengths
//	askgen -distinct 4096 -skew 1.2 -order hot -stats    # synthetic Zipf
//	askgen -list-scenarios                               # corpus registry
//	askgen -scenario flash-crowd -out flash.askt         # record a timed v2 trace
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "corpus stand-in (yelp, NG, BAC, LMDB); empty = synthetic")
		distinct = flag.Int("distinct", 8192, "distinct keys (synthetic)")
		skew     = flag.Float64("skew", 0, "Zipf exponent (synthetic; 0 = uniform)")
		order    = flag.String("order", "shuffled", "arrival order: shuffled, hot, cold")
		tuples   = flag.Int64("tuples", 100_000, "stream length")
		seed     = flag.Int64("seed", 1, "generator seed: same flags + same seed = byte-identical output")
		out      = flag.String("out", "", "write the trace to this file instead of stdout")
		show     = flag.Bool("stats", false, "print stream statistics instead of a trace")

		scen     = flag.String("scenario", "", "record a corpus scenario (timed v2 trace; see -list-scenarios)")
		scenSeed = flag.Int64("scenario-seed", 0, "override the scenario's pinned seed (0 = keep)")
		list     = flag.Bool("list-scenarios", false, "list the scenario corpus and exit")
	)
	flag.Parse()
	// -tuples has a non-zero default; a scenario keeps its own length
	// unless the flag was given explicitly.
	scenTuples := int64(0)
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "tuples" {
			scenTuples = *tuples
		}
	})

	if *list {
		listScenarios(os.Stdout)
		return
	}
	if *scen != "" {
		n, err := writeOut(*out, func(w io.Writer) (int64, error) {
			return recordScenario(w, *scen, scenTuples, *scenSeed)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "askgen:", err)
			os.Exit(1)
		}
		if *out != "" {
			fmt.Printf("recorded %d timed tuples of scenario %q to %s\n", n, *scen, *out)
		}
		return
	}

	var spec workload.Spec
	if *dataset != "" {
		spec = workload.Dataset(*dataset, *tuples, *seed)
	} else {
		var o workload.Order
		switch *order {
		case "shuffled":
			o = workload.Shuffled
		case "hot":
			o = workload.HotFirst
		case "cold":
			o = workload.ColdFirst
		default:
			fmt.Fprintf(os.Stderr, "askgen: unknown order %q\n", *order)
			os.Exit(1)
		}
		spec = workload.Zipf(*distinct, *tuples, *skew, o, *seed)
		spec.KeyLens = workload.NaturalLanguage(0)
	}

	switch {
	case *show:
		printStats(spec)
	default:
		n, err := writeOut(*out, func(w io.Writer) (int64, error) {
			return workload.WriteTSV(w, spec.Stream())
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "askgen:", err)
			os.Exit(1)
		}
		if *out != "" {
			fmt.Printf("wrote %d tuples to %s\n", n, *out)
		}
	}
}

// writeOut runs write against path (empty = stdout) through one buffered
// writer.
func writeOut(path string, write func(io.Writer) (int64, error)) (int64, error) {
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		out = f
	}
	w := bufio.NewWriter(out)
	n, err := write(w)
	if err != nil {
		return n, err
	}
	return n, w.Flush()
}

// recordScenario resolves a corpus scenario and streams it as a v2 timed
// trace. tuples > 0 rescales the stream; seed != 0 overrides the pinned
// seed (both are stamped into the header, so a recorded trace names its
// exact generator).
func recordScenario(w io.Writer, name string, tuples, seed int64) (int64, error) {
	s, err := scenario.ByName(name)
	if err != nil {
		return 0, err
	}
	if tuples > 0 {
		s = s.WithTuples(tuples)
	}
	if seed != 0 {
		s = s.WithSeed(seed)
	}
	return workload.WriteTimedTrace(w, s.Header(), s.TimedStream())
}

func listScenarios(w io.Writer) {
	fmt.Fprintln(w, "Scenario corpus:")
	for _, s := range scenario.All() {
		fmt.Fprintf(w, "  %-22s %s\n", s.Name, s.Desc)
		fmt.Fprintf(w, "  %-22s   stresses: %s\n", "", s.Stressor)
	}
	fmt.Fprintln(w, "\nRecord one with: askgen -scenario <name> -out <file>")
}

func emit(spec workload.Spec, f func(core.KV)) {
	s := spec.Stream()
	for {
		kv, ok := s()
		if !ok {
			return
		}
		f(kv)
	}
}

func printStats(spec workload.Spec) {
	counts := make(map[string]int64)
	var lens stats.CDF
	emit(spec, func(kv core.KV) {
		counts[kv.Key]++
		lens.Add(float64(len(kv.Key)))
	})
	freqs := make([]int64, 0, len(counts))
	var total int64
	for _, c := range counts {
		freqs = append(freqs, c)
		total += c
	}
	sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
	topMass := func(n int) float64 {
		var m int64
		for i := 0; i < n && i < len(freqs); i++ {
			m += freqs[i]
		}
		return 100 * float64(m) / float64(total)
	}
	fmt.Printf("workload %q: %d tuples, %d distinct keys\n", spec.Name, total, len(counts))
	fmt.Printf("  hottest key share:    %.2f%%\n", topMass(1))
	fmt.Printf("  top-10 key share:     %.2f%%\n", topMass(10))
	fmt.Printf("  top-100 key share:    %.2f%%\n", topMass(100))
	fmt.Printf("  key length mean/p50/p90: %.1f / %.0f / %.0f bytes\n",
		lens.Mean(), lens.Quantile(0.5), lens.Quantile(0.9))
	short, medium, long := 0.0, 0.0, 0.0
	for l, n := 0.0, lens.N(); l <= 64; l++ {
		frac := lens.At(l) - lens.At(l-1)
		switch {
		case l <= 4:
			short += frac
		case l <= 8:
			medium += frac
		default:
			long += frac
		}
		_ = n
	}
	fmt.Printf("  length classes (default config): short %.1f%%, medium %.1f%%, long %.1f%%\n",
		100*short, 100*medium, 100*long)
}
