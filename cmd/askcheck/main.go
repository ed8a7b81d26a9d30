// Command askcheck is the repository's static-analysis driver: a
// multichecker over the internal/analysis suite, in the mold of a
// golang.org/x/tools/go/analysis/multichecker binary but built on the
// self-contained internal/analysis/framework (no external dependencies,
// so it runs in the hermetic CI container).
//
// Usage:
//
//	askcheck [-run name,name] [packages]
//
// Packages follow go-tool patterns: "./..." (the default) walks every
// package under the current module, the analyzers' own sources included; a
// plain path names one directory. Each package is loaded and then analyzed,
// in directory order. Loading dominates the run.
//
// Analyzers:
//
//	simdeterminism  wall-clock, global rand, order-leaking map iteration
//	telemetrynames  registered metrics documented in DESIGN.md's inventory
//	errtaxonomy     typed errors matched without errors.Is/As; undocumented
//	                error-returning APIs in ask/
//
// A diagnostic can be suppressed with
// //askcheck:allow(<analyzer>[,<analyzer>...]) on the offending line or
// the line above. Exit status: 0 clean, 1 diagnostics reported, 2
// operational failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/errtaxonomy"
	"repro/internal/analysis/framework"
	"repro/internal/analysis/simdeterminism"
	"repro/internal/analysis/telemetrynames"
)

var all = []*framework.Analyzer{
	simdeterminism.Analyzer,
	telemetrynames.Analyzer,
	errtaxonomy.Analyzer,
}

func main() {
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: askcheck [-run name,name] [packages]\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	res, err := analyze(cwd, patterns, analyzers)
	if err != nil {
		fatal(err)
	}
	if err := res.writeText(os.Stdout, cwd); err != nil {
		fatal(err)
	}
	if n := len(res.diags); n > 0 {
		fmt.Printf("askcheck: %d problem(s) across %d package(s)\n", n, res.pkgs)
		os.Exit(1)
	}
	fmt.Printf("askcheck: %d package(s) clean (%s)\n", res.pkgs, analyzerNames(analyzers))
}

func selectAnalyzers(runList string) ([]*framework.Analyzer, error) {
	if runList == "" {
		return all, nil
	}
	byName := make(map[string]*framework.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*framework.Analyzer
	for _, n := range strings.Split(runList, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", n, analyzerNames(all))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers")
	}
	return out, nil
}

func analyzerNames(as []*framework.Analyzer) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.Name
	}
	return strings.Join(names, ",")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "askcheck:", err)
	os.Exit(2)
}
