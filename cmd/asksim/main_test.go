package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestMain lets the tests drive the real main, exit status included: the
// test binary re-executed with "-asksim" as its first argument is the
// command.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-asksim" {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		return
	}
	os.Exit(m.Run())
}

// asksim runs the command with args and returns its output and exit status.
func asksim(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-asksim"}, args...)...)
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

// TestFlagsThatCannotBeHonouredAreRejected covers every rejectFlags site: a
// flag the topology, the layout, the soak kind or the workload source would
// ignore exits 1 naming the flag and the reason, before anything runs.
func TestFlagsThatCannotBeHonouredAreRejected(t *testing.T) {
	const soakOwnsRun = "a soak builds its deployments and workloads from -topology and the -soak.* flags\n"
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-replay", "f.askt", "-tuples", "7"}, "asksim: -tuples does not apply to -replay: the trace supplies the tuples\n"},
		{[]string{"-replay", "f.askt", "-distinct", "7"}, "asksim: -distinct does not apply to -replay: the trace supplies the keys\n"},
		{[]string{"-replay", "f.askt", "-skew", "2"}, "asksim: -skew does not apply to -replay: the trace supplies the key distribution\n"},
		{[]string{"-spines", "3"}, "asksim: -spines does not apply to -topology rack: a rack has one switch\n"},
		{[]string{"-topology", "multirack", "-telemetry"}, "asksim: -telemetry does not apply to -topology multirack: the multi-rack deployment has no cluster telemetry set\n"},
		{[]string{"-topology", "fattree", "-senders", "2"}, "asksim: -senders does not apply to a run over several groups: every task sends from one host per other group\n"},
		{[]string{"-soak", "-soak.spines", "3"}, "asksim: -soak.spines does not apply to the rack soak: the rack has a single switch\n"},
		{[]string{"-soak", "-soak.runs", "1", "-json", "f", "-telemetry", "-tuples", "5", "-loss", "0.5"}, "asksim: -json does not apply to -soak: " + soakOwnsRun},
		{[]string{"-soak", "-telemetry"}, "asksim: -telemetry does not apply to -soak: " + soakOwnsRun},
		{[]string{"-soak", "-topology", "fattree", "-tuples", "5"}, "asksim: -tuples does not apply to -soak: " + soakOwnsRun},
		{[]string{"-soak", "-loss", "0.5"}, "asksim: -loss does not apply to -soak: " + soakOwnsRun},
		{[]string{"-soak", "-seed", "2"}, "asksim: -seed does not apply to -soak: " + soakOwnsRun},
		{[]string{"-soak", "-layout"}, "asksim: -layout does not apply to -soak: " + soakOwnsRun},
	} {
		stdout, stderr, exit := asksim(t, c.args...)
		if exit != 1 || stdout != "" || stderr != c.want {
			t.Errorf("asksim %s: exit %d, stdout %q, stderr %q; want exit 1 and %q",
				strings.Join(c.args, " "), exit, stdout, stderr, c.want)
		}
	}
}

// traceFile writes kvs as a v2 trace in a temporary file, their arrivals
// spread evenly over span (zero: every offset zero), and returns its path.
func traceFile(t *testing.T, kvs []core.KV, span time.Duration) string {
	t.Helper()
	tkvs := make([]core.TimedKV, len(kvs))
	for i, kv := range kvs {
		tkvs[i] = core.TimedKV{KV: kv, At: span * time.Duration(i) / time.Duration(len(kvs))}
	}
	var buf bytes.Buffer
	if _, err := workload.WriteTimedTrace(&buf, workload.TraceHeader{}, core.SliceTimedStream(tkvs)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.askt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayZeroOffsetTraceBackToBack replays an untimed trace — every
// arrival at offset zero, as askgen writes a dataset: -replay deals the
// tuples across the senders, verifies the aggregate against the fold of the
// file, and streams them back to back, finishing well before the same
// records spread over 5 ms can.
func TestReplayZeroOffsetTraceBackToBack(t *testing.T) {
	kvs := make([]core.KV, 300)
	for i := range kvs {
		kvs[i] = core.KV{Key: []string{"alpha", "beta", "gamma", "a-rather-longer-key"}[i%4], Val: 1}
	}
	const span = 5 * time.Millisecond
	elapsed := func(over time.Duration) time.Duration {
		stdout, stderr, exit := asksim(t, "-replay", traceFile(t, kvs, over), "-hosts", "3", "-senders", "2")
		if exit != 0 || stderr != "" {
			t.Fatalf("exit %d, stderr %q", exit, stderr)
		}
		for _, want := range []string{"result verified exact against host-computed reference ✓", "distinct result keys:  4\n"} {
			if !strings.Contains(stdout, want) {
				t.Fatalf("output lacks %q:\n%s", want, stdout)
			}
		}
		_, rest, _ := strings.Cut(stdout, "task completed in ")
		d, err := time.ParseDuration(strings.SplitN(rest, " ", 2)[0])
		if err != nil {
			t.Fatalf("no completion time in:\n%s", stdout)
		}
		return d
	}
	if zero, paced := elapsed(0), elapsed(span); zero >= span || paced < span*299/300 {
		t.Fatalf("zero offsets completed in %v, the same records over %v in %v", zero, span, paced)
	}
}

// TestVerifyFalseIgnoresExactlyTheMismatch: the command line cannot supply a
// wrong reference — it is folded from the very input the senders stream — but
// it can supply an input the switch aggregates wrongly: values inside the
// 32-bit vPart whose per-key sum is not (§3.2.1; core.KV). The run then fails
// with the Diff, -verify=false prints the report instead, and an error that
// is not a mismatch still fails under -verify=false.
func TestVerifyFalseIgnoresExactlyTheMismatch(t *testing.T) {
	path := traceFile(t, slices.Repeat([]core.KV{{Key: "k", Val: 2_000_000_000}}, 6), 0)
	args := []string{"-replay", path, "-hosts", "2", "-senders", "1"}
	stdout, stderr, exit := asksim(t, args...)
	if want := "asksim: RESULT MISMATCH (task): 1 diffs: [\"k\": -884901888 vs 12000000000]\n"; exit != 1 || stdout != "" || stderr != want {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and %q", exit, stdout, stderr, want)
	}
	stdout, stderr, exit = asksim(t, append(args, "-verify=false")...)
	if exit != 0 || stderr != "" || !strings.Contains(stdout, "distinct result keys:  1\n") || strings.Contains(stdout, "verified") {
		t.Fatalf("-verify=false: exit %d, stderr %q, stdout:\n%s", exit, stderr, stdout)
	}
	_, stderr, exit = asksim(t, append(args, "-verify=false", "-rows", "1073741824")...)
	if exit != 1 || !strings.HasPrefix(stderr, "asksim: task: ") {
		t.Fatalf("-verify=false with a region no switch can allocate: exit %d, stderr %q; want the task's own error", exit, stderr)
	}
}

// TestTelemetryOutputs runs both telemetry outputs of a small rack run end to
// end: -json - appends a telemetry.Snapshot holding every layer's metric
// family to the run report, and -telemetry prints the metric table and the
// trace line; on a fat-tree, -telemetry labels each switch's counters with
// its address.
func TestTelemetryOutputs(t *testing.T) {
	run := []string{"-tuples", "2000", "-distinct", "256"}
	stdout, stderr, exit := asksim(t, append(run, "-json", "-")...)
	if exit != 0 || stderr != "" {
		t.Fatalf("-json -: exit %d, stderr %q", exit, stderr)
	}
	i := strings.Index(stdout, "\n{\n")
	if i < 0 {
		t.Fatalf("-json -: no JSON object after the report:\n%s", stdout)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(stdout[i+1:]), &snap); err != nil {
		t.Fatalf("-json -: %v", err)
	}
	for _, family := range []string{"switchd.", "hostd.", "window.", "netsim."} {
		found := false
		for _, m := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range m {
				found = found || strings.HasPrefix(name, family)
			}
		}
		for name := range snap.Histograms {
			found = found || strings.HasPrefix(name, family)
		}
		if !found {
			t.Errorf("-json -: snapshot has no %s metric", family)
		}
	}
	if got := snap.Counters[`switchd.tuples_in{task="1"}`]; got != 3*2000 {
		t.Errorf(`-json -: switchd.tuples_in{task="1"} = %d, want 6000 (three senders)`, got)
	}

	stdout, stderr, exit = asksim(t, append(run, "-telemetry")...)
	if exit != 0 || stderr != "" {
		t.Fatalf("-telemetry: exit %d, stderr %q", exit, stderr)
	}
	for _, re := range []string{
		`(?m)^== Telemetry ==$`,
		`(?m)^switchd\.tuples_in\{task="1"\} +counter +6000 *$`,
		`(?m)^hostd\.tuples_sent\{host="1"\} +counter +2000 *$`,
		`(?m)^window\.rtt_ns\{flow="h1/ch1"\} +histogram +n=\d+`,
		`(?m)^trace: \d+ events captured \(\d+ dropped\)$`,
	} {
		if !regexp.MustCompile(re).MatchString(stdout) {
			t.Errorf("-telemetry output lacks %s:\n%s", re, stdout)
		}
	}

	// A fat-tree reports every leaf's and spine's counters under its
	// address: the two senders' leaves absorb 2000 tuples each.
	stdout, stderr, exit = asksim(t, append(run, "-topology", "fattree", "-telemetry")...)
	if exit != 0 || stderr != "" {
		t.Fatalf("-topology fattree -telemetry: exit %d, stderr %q", exit, stderr)
	}
	for _, re := range []string{
		`(?m)^switchd\.tuples_in\{switch="0xf000",task="1"\} +counter +0 *$`,
		`(?m)^switchd\.tuples_in\{switch="0xf001",task="1"\} +counter +2000 *$`,
		`(?m)^switchd\.tuples_in\{switch="0xf002",task="1"\} +counter +2000 *$`,
		`(?m)^switchd\.swaps\{switch="0xf800"\} +counter +0 *$`,
		`(?m)^switchd\.swaps\{switch="0xf801"\} +counter +0 *$`,
		`(?m)^hostd\.tuples_sent\{host="4"\} +counter +2000 *$`,
	} {
		if !regexp.MustCompile(re).MatchString(stdout) {
			t.Errorf("-topology fattree -telemetry output lacks %s:\n%s", re, stdout)
		}
	}
}
