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
