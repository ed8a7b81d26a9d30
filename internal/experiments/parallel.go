package experiments

import (
	"encoding/json"
	"sync"

	"repro/internal/stats"
)

// Parallel experiment runner (cmd/askbench, one worker per CPU).
//
// Experiment points are embarrassingly parallel: each builds its own
// cluster, its own simulation, its own RNGs — the simdeterminism analyzer
// statically guarantees the model packages share no mutable globals and
// never read wall clocks, so running K experiments on K OS threads cannot
// perturb any of them. Each simulation stays single-goroutine; parallelism
// exists only BETWEEN experiments.
//
// Determinism contract: RunParallel's result depends only on the runner
// list, never on worker count or scheduling order. Outcomes are stored by
// input position, so any worker count prints (and OutcomesJSON
// serializes) byte-identical output. The golden test in
// parallel_test.go enforces this.

// Outcome is one experiment's result: the rendered tables, or the error
// text. Err is a string (not error) so Outcome marshals deterministically.
type Outcome struct {
	Name   string         `json:"name"`
	Tables []*stats.Table `json:"tables,omitempty"`
	Err    string         `json:"error,omitempty"`
}

// RunParallel runs the given experiments on a pool of `workers` goroutines
// (workers <= 1 degenerates to strictly serial, in order) and returns their
// outcomes in input order. quick selects the test scale.
func RunParallel(runners []Runner, quick bool, workers int) []Outcome {
	out := make([]Outcome, len(runners))
	runOne := func(i int) {
		tables, err := runners[i].Run(quick)
		out[i] = Outcome{Name: runners[i].Name, Tables: tables}
		if err != nil {
			out[i].Err = err.Error()
		}
	}
	if workers <= 1 || len(runners) <= 1 {
		for i := range runners {
			runOne(i)
		}
		return out
	}
	if workers > len(runners) {
		workers = len(runners)
	}
	// Work-stealing by index: the next counter hands each worker the lowest
	// unclaimed experiment. Completion order varies; out[] position does not.
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(runners) {
					return
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// OutcomesJSON serializes outcomes deterministically (stable field order,
// two-space indent, trailing newline). This is askbench's -json output and
// the byte-identity artifact of the serial-vs-parallel golden test.
func OutcomesJSON(outcomes []Outcome) ([]byte, error) {
	b, err := json.MarshalIndent(outcomes, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
