package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// TestMain lets the tests drive the real main, exit status included: the
// test binary re-executed with "-askgen" as its first argument is the
// command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-askgen" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// askgen runs the command with args and returns its output and exit status.
func askgen(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-askgen"}, args...)...)
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

// TestSeedReproducibility locks askgen's determinism contract: the same
// flags with the same seed produce byte-identical output, for both the
// untimed synthetic path and scenario recording.
func TestSeedReproducibility(t *testing.T) {
	gen := func(seed int64) []byte {
		spec := workload.Zipf(512, 2_000, 1.1, workload.Shuffled, seed)
		spec.KeyLens = workload.NaturalLanguage(0)
		var buf bytes.Buffer
		if _, err := writeSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(gen(7), gen(7)) {
		t.Error("same seed produced different synthetic traces")
	}
	if bytes.Equal(gen(7), gen(8)) {
		t.Error("different seeds produced identical synthetic traces")
	}

	rec := func(seed int64) []byte {
		var buf bytes.Buffer
		if _, err := recordScenario(&buf, "flash-crowd", 2_000, seed); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(rec(7), rec(7)) {
		t.Error("same seed produced different scenario traces")
	}
	if bytes.Equal(rec(7), rec(8)) {
		t.Error("different seeds produced identical scenario traces")
	}
}

// TestRecordScenarioHeader checks a recorded trace round-trips with the
// right identity: scenario name, overridden seed and length, v2 format.
func TestRecordScenarioHeader(t *testing.T) {
	var buf bytes.Buffer
	n, err := recordScenario(&buf, "steady-poisson", 1_500, 99)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1_500 {
		t.Fatalf("recorded %d tuples, want 1500", n)
	}
	hdr, tkvs, err := workload.ReadTimedTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != workload.TraceVersion || hdr.Scenario != "steady-poisson" ||
		hdr.Seed != 99 || hdr.Records != 1_500 {
		t.Fatalf("header: %+v", hdr)
	}
	if int64(len(tkvs)) != 1_500 {
		t.Fatalf("decoded %d records", len(tkvs))
	}

	if _, err := recordScenario(&buf, "no-such-scenario", 0, 0); err == nil {
		t.Error("recordScenario accepted an unknown scenario")
	}
}

// TestListScenarios keeps the listing in sync with the registry.
func TestListScenarios(t *testing.T) {
	var buf bytes.Buffer
	listScenarios(&buf)
	for _, name := range scenario.Names() {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("listing is missing scenario %q", name)
		}
	}
}

// TestSeedOverridesScenarioOnlyWhenGiven: -seed, like -tuples, replaces a
// scenario's pinned value only when given on the command line.
func TestSeedOverridesScenarioOnlyWhenGiven(t *testing.T) {
	pinned, err := scenario.ByName("steady-poisson")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		seed int64
	}{
		{[]string{"-scenario", "steady-poisson", "-tuples", "200"}, pinned.Seed},
		{[]string{"-scenario", "steady-poisson", "-tuples", "200", "-seed", "99"}, 99},
	} {
		stdout, stderr, exit := askgen(t, c.args...)
		if exit != 0 || stderr != "" {
			t.Fatalf("%v: exit %d, stderr %q", c.args, exit, stderr)
		}
		hdr, _, err := workload.ReadTimedTrace(strings.NewReader(stdout))
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Seed != c.seed || hdr.Records != 200 {
			t.Errorf("%v: header seed %d records %d, want seed %d records 200", c.args, hdr.Seed, hdr.Records, c.seed)
		}
	}
	if _, _, exit := askgen(t, "-scenario", "steady-poisson", "-scenario-seed", "5"); exit != 2 {
		t.Errorf("-scenario-seed: exit %d, want 2 (no such flag)", exit)
	}
}

// TestFlagsAModeIgnoresAreRejected: a flag the chosen mode would ignore exits
// 1 naming it, and writes nothing to stdout.
func TestFlagsAModeIgnoresAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "steady-poisson", "-dataset", "yelp"},
		{"-scenario", "steady-poisson", "-skew", "1.2"},
		{"-scenario", "steady-poisson", "-stats"},
		{"-dataset", "yelp", "-distinct", "64"},
		{"-dataset", "yelp", "-order", "hot"},
		{"-tuples", "100", "-stats", "-out", "x.askt"},
		{"-list-scenarios", "-seed", "3"},
	} {
		stdout, stderr, exit := askgen(t, args...)
		if exit != 1 || stdout != "" || !strings.Contains(stderr, "does not apply to") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 and a rejection", args, exit, stdout, stderr)
		}
	}
}
