package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
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
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-replay", "f.askt", "-tuples", "7"}, "asksim: -tuples does not apply to -replay: the trace supplies the tuples\n"},
		{[]string{"-replay", "f.askt", "-distinct", "7"}, "asksim: -distinct does not apply to -replay: the trace supplies the keys\n"},
		{[]string{"-replay", "f.askt", "-skew", "2"}, "asksim: -skew does not apply to -replay: the trace supplies the key distribution\n"},
		{[]string{"-spines", "3"}, "asksim: -spines does not apply to -topology rack: a rack has one switch\n"},
		{[]string{"-topology", "multirack", "-telemetry"}, "asksim: -telemetry does not apply to -topology multirack: the multi-rack deployment has no cluster telemetry set\n"},
		{[]string{"-topology", "fattree", "-telemetry"}, "asksim: -telemetry does not apply to -topology fattree without -tenants: the fat-tree's telemetry set carries only the tenancy gauges; its switches and daemons keep private registries\n"},
		{[]string{"-topology", "fattree", "-json", "-"}, "asksim: -json does not apply to -topology fattree without -tenants: the fat-tree's telemetry set carries only the tenancy gauges; its switches and daemons keep private registries\n"},
		{[]string{"-topology", "fattree", "-senders", "2"}, "asksim: -senders does not apply to a run over several groups: every task sends from one host per other group\n"},
		{[]string{"-soak", "-soak.spines", "3"}, "asksim: -soak.spines does not apply to the rack soak: the rack has a single switch\n"},
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
