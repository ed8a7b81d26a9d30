package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/stats"
)

// goldenPath is the committed `askbench -run all -quick -json`, written by the
// serial CLI.
var goldenPath = filepath.Join("testdata", "quick.json")

// readGolden returns the committed bytes and the outcomes they decode to.
func readGolden(t *testing.T) ([]byte, []Outcome) {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []Outcome
	if err := json.Unmarshal(raw, &outcomes); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return raw, outcomes
}

// pinned returns table k of one experiment at quick scale as committed.
// TestQuickGolden proves the committed tables are what the code produces, so
// the shape tests judge them instead of running each experiment a second
// time.
func pinned(t *testing.T, name string, k int) *stats.Table {
	t.Helper()
	_, outcomes := readGolden(t)
	for _, o := range outcomes {
		if o.Name == name && k < len(o.Tables) {
			return o.Tables[k]
		}
	}
	t.Fatalf("%s has no table %d of %q", goldenPath, k, name)
	return nil
}

// TestQuickGolden is the one run of every experiment per `go test`: the whole
// registry at quick scale on a worker per CPU, byte-equal to the file
// the serial CLI wrote — so it pins every cell of every table and proves
// serial ≡ parallel on the real registry in one pass.
//
// Under the race detector the run is skipped (by build tag, not -short, which
// would also drop ask's property tests): each simulation is single-goroutine,
// the worker pool is raced by TestParallelMatchesSerialGolden. The sharded
// lanes are not built here; ask's fat-tree sharded goldens and
// internal/sim's shard_test.go race them.
func TestQuickGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("21 single-goroutine simulations under -race cost minutes and race nothing")
	}
	want, wantOutcomes := readGolden(t)
	outcomes := RunParallel(All(), true, runtime.NumCPU())
	got, err := OutcomesJSON(outcomes)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	const regen = "after an intended table change, regenerate and review the diff:\n" +
		"  go run ./cmd/askbench -run all -quick -json > internal/experiments/testdata/quick.json"
	for i, o := range outcomes {
		var w Outcome
		if i < len(wantOutcomes) {
			w = wantOutcomes[i]
		}
		if o.Name != w.Name || o.Err != w.Err || len(o.Tables) != len(w.Tables) {
			t.Fatalf("outcome %d: %q (error %q, %d tables), committed %q (error %q, %d tables)\n%s",
				i, o.Name, o.Err, len(o.Tables), w.Name, w.Err, len(w.Tables), regen)
		}
		for k, tb := range o.Tables {
			if tb.String() != w.Tables[k].String() {
				t.Fatalf("%s: table %d differs from %s\n--- got ---\n%s--- committed ---\n%s\n%s",
					o.Name, k, goldenPath, tb, w.Tables[k], regen)
			}
		}
	}
	t.Fatalf("%s differs from the registry's output outside every table (%d outcomes run, %d committed)\n%s",
		goldenPath, len(outcomes), len(wantOutcomes), regen)
}
