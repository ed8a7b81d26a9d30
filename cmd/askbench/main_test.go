package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestMain lets the tests drive the real main, exit status included: the
// test binary re-executed with "-askbench" as its first argument is the
// command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-askbench" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// askbench runs the command with args and returns its output and exit status.
func askbench(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-askbench"}, args...)...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

// TestRunJSONEqualsCommittedElement drives the path that writes the golden:
// one experiment's -quick -json output is that experiment's element of
// internal/experiments/testdata/quick.json, byte for byte.
func TestRunJSONEqualsCommittedElement(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "quick.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pinned []experiments.Outcome
	if err := json.Unmarshal(raw, &pinned); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, o := range pinned {
		if o.Name == "fig12" {
			if want, err = experiments.OutcomesJSON([]experiments.Outcome{o}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want == nil {
		t.Fatal("quick.json has no fig12 element")
	}
	stdout, stderr, exit := askbench(t, "-run", "fig12", "-quick", "-json")
	if exit != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	if stdout != string(want) {
		t.Fatalf("askbench -run fig12 -quick -json:\n%s\nwant the committed element:\n%s", stdout, want)
	}
}

func TestUnknownExperimentExits1EnumeratingTheRegistry(t *testing.T) {
	stdout, stderr, exit := askbench(t, "-run", "nope")
	if exit != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and nothing on stdout", exit, stdout)
	}
	for _, r := range experiments.All() {
		if !strings.Contains(stderr, r.Name) {
			t.Fatalf("error does not name %s: %s", r.Name, stderr)
		}
	}
}

// TestRunScenarioNamesOneCorpusScenario drives the one-scenario sweep through
// -run: "scenario:<name>" is the outcome's name, and there is no separate
// -scenario flag.
func TestRunScenarioNamesOneCorpusScenario(t *testing.T) {
	stdout, stderr, exit := askbench(t, "-run", "scenario:flash-crowd", "-quick", "-json")
	if exit != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	var got []experiments.Outcome
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "scenario:flash-crowd" || len(got[0].Tables) != 1 || len(got[0].Tables[0].Rows) != 1 {
		t.Fatalf("want one outcome scenario:flash-crowd with a one-row table, got %s", stdout)
	}
	if _, stderr, exit := askbench(t, "-run", "scenario:nope"); exit != 1 || !strings.Contains(stderr, "flash-crowd") {
		t.Fatalf("unknown scenario: exit %d, stderr %q; want exit 1 naming the corpus", exit, stderr)
	}
	if _, _, exit := askbench(t, "-scenario", "flash-crowd"); exit != 2 {
		t.Fatalf("-scenario: exit %d, want 2 (no such flag)", exit)
	}
}

// TestListingRejectsRunFlags: the listing ignores -run, -quick and -json,
// so each of them beside it exits 1 instead.
func TestListingRejectsRunFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-list", "-run", "fig12"},
		{"-list", "-quick"},
		{"-json"},
	} {
		stdout, stderr, exit := askbench(t, args...)
		if exit != 1 || stdout != "" || !strings.Contains(stderr, "does not apply to the experiment listing") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and a rejection", args, exit, stdout, stderr)
		}
	}
	if stdout, _, exit := askbench(t, "-list"); exit != 0 || !strings.Contains(stdout, "fig12") {
		t.Fatalf("-list: exit %d, stdout %q", exit, stdout)
	}
}
