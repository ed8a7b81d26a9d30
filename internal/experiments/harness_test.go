package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/ask"
	"repro/internal/workload"
)

// TestRunRejectsWrongReferenceAndCloses feeds runAggregation a deliberately wrong
// reference: it must return an error carrying the Diff instead of a result,
// and the cluster must still be released (its goroutines gone).
func TestRunRejectsWrongReferenceAndCloses(t *testing.T) {
	before := runtime.NumGoroutine()
	j := singleSenderTask(workload.Uniform(64, 2000, 1), 0)
	var victim string
	for k := range j.Want {
		victim = k
		break
	}
	right := j.Want[victim]
	j.Want[victim]++
	res, _, err := runAggregation(ask.Options{Hosts: 2, Seed: 1}, j)
	if err == nil || res != nil {
		t.Fatalf("wrong reference accepted: res=%v err=%v", res, err)
	}
	if diff := fmt.Sprintf("1 diffs: [%q: %d vs %d]", victim, right, right+1); !strings.Contains(err.Error(), diff) {
		t.Fatalf("error %q does not carry the diff %q", err, diff)
	}
	for i := 0; runtime.NumGoroutine() > before && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines before, %d after a failed run: the cluster was not closed", before, n)
	}
}

// TestRegistryJSONIsDeterministic runs the fabric-chaos experiment — spine
// and leaf outages, re-election and replay, the most state a run carries —
// twice in-process and requires byte-equal JSON: a run is a function of
// (experiment, scale, seed) alone.
func TestRegistryJSONIsDeterministic(t *testing.T) {
	r, err := ByName("fabric-chaos")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2][]byte
	for i := range runs {
		if runs[i], err = OutcomesJSON(RunParallel([]Runner{r}, true, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("two runs of one binary differ:\n%s\nvs\n%s", runs[0], runs[1])
	}
	if bytes.Contains(runs[0], []byte(`"error"`)) {
		t.Fatalf("fabric-chaos failed:\n%s", runs[0])
	}
}
