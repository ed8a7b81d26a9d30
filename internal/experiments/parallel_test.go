package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// seedRunner builds a self-contained experiment point: one cluster, one
// aggregation over a seed-determined workload, one table of
// simulation-derived numbers (virtual elapsed, absorbed tuples, result
// checksum). Everything in the table comes from virtual time, so the bytes
// depend only on the seed — the property the golden test locks down.
func seedRunner(seed int64) Runner {
	run := func(bool) ([]*stats.Table, error) {
		spec := workload.Spec{
			Name:     fmt.Sprintf("golden-%d", seed),
			Distinct: 300,
			Tuples:   6000,
			Seed:     seed,
		}
		j := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
		j.Send(1, spec)
		j.Send(2, spec)
		res, _, err := runAggregation(ask.Options{Hosts: 3, Seed: seed}, j)
		if err != nil {
			return nil, err
		}
		var keys, sum int64
		for _, v := range res.Result {
			keys++
			sum += v
		}
		t := &stats.Table{
			Title:  fmt.Sprintf("golden seed %d", seed),
			Header: []string{"elapsed", "switch tuples", "keys", "sum"},
		}
		t.AddRow(res.Elapsed, res.Switch.TuplesAggregated, keys, sum)
		return []*stats.Table{t}, nil
	}
	return Runner{
		Name: fmt.Sprintf("golden-%d", seed),
		Desc: "serial-vs-parallel determinism fixture",
		Run:  run,
	}
}

// TestParallelMatchesSerialGolden is the golden determinism test: for three
// seeds, running the experiment set on 8 workers must produce JSON
// byte-identical to the 1-worker (strictly serial) run. Under `go test
// -race` this doubles as the data-race exercise of the parallel runner.
func TestParallelMatchesSerialGolden(t *testing.T) {
	var runners []Runner
	for _, seed := range []int64{1, 2, 3} {
		runners = append(runners, seedRunner(seed))
	}
	serialOut := RunParallel(runners, true, 1)
	parallelOut := RunParallel(runners, true, 8)

	serialJSON, err := OutcomesJSON(serialOut)
	if err != nil {
		t.Fatal(err)
	}
	parallelJSON, err := OutcomesJSON(parallelOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON, parallelJSON) {
		t.Fatalf("parallel run diverged from serial run:\nserial:\n%s\nparallel:\n%s",
			serialJSON, parallelJSON)
	}
	for _, o := range serialOut {
		if o.Err != "" {
			t.Fatalf("%s failed: %s", o.Name, o.Err)
		}
		if len(o.Tables) == 0 {
			t.Fatalf("%s produced no tables", o.Name)
		}
	}
	// Repetition determinism: a second serial run over fresh clusters must
	// reproduce the same bytes (guards against pooling or global state
	// leaking between runs).
	again, err := OutcomesJSON(RunParallel(runners, true, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialJSON, again) {
		t.Fatal("repeat serial run diverged — state leaked between experiments")
	}
}
