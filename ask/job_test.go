package ask

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// TestJobResultVerdicts pins the one verify step: what Job.Result hands back
// before the simulation ran, on an exact run, and when one value of the
// reference is perturbed — the outcome plus a typed error carrying the Diff.
func TestJobResultVerdicts(t *testing.T) {
	cl, err := NewCluster(Options{Hosts: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	wrong := NewJob(core.TaskSpec{ID: 2, Receiver: 0, Op: core.OpSum})
	for _, j := range []*Job{exact, wrong} {
		j.Send(1, workload.Uniform(64, 2000, 1))
		j.Send(2, workload.Uniform(64, 2000, 2))
	}
	if _, err := exact.Result(); err == nil || !strings.Contains(err.Error(), "task 1 was not started") {
		t.Fatalf("Result before Start returned %v", err)
	}
	var victim string
	for k := range wrong.Want {
		victim = k
		break
	}
	right := wrong.Want[victim]
	wrong.Want[victim]++

	if err := cl.Start(exact, wrong); err != nil {
		t.Fatal(err)
	}
	if _, err := exact.Result(); err == nil || !strings.Contains(err.Error(), "task 1 did not complete") {
		t.Fatalf("Result before the simulation ran returned %v", err)
	}
	cl.Sim.Run(0)

	res, err := exact.Result()
	if err != nil || !res.Result.Equal(exact.Want) {
		t.Fatalf("exact job: res=%v err=%v", res, err)
	}
	res, err = wrong.Result()
	var mismatch *core.MismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("perturbed reference returned %v, want a *core.MismatchError", err)
	}
	if want := fmt.Sprintf("1 diffs: [%q: %d vs %d]", victim, right, right+1); mismatch.Diff != want {
		t.Fatalf("Diff %q, want %q", mismatch.Diff, want)
	}
	if res == nil || res.Result[victim] != right {
		t.Fatalf("a mismatch must still hand back the outcome, got %v", res)
	}

	// Run is the same verdict with the task named, and no results.
	again := NewJob(core.TaskSpec{ID: 3, Receiver: 0, Op: core.OpSum})
	again.Send(1, workload.Uniform(64, 2000, 3))
	again.Want["never-sent"] = 1
	results, err := cl.Run(again)
	if results != nil || !errors.As(err, &mismatch) || !strings.HasPrefix(err.Error(), "ask: task 3: wrong aggregation result: 1 diffs") {
		t.Fatalf("Run with a wrong reference returned %v, %v", results, err)
	}
	// A submission the validator refuses never starts anything.
	if err := cl.Start(NewJob(core.TaskSpec{ID: 4, Receiver: 0})); err == nil || err.Error() != "ask: task 4: ask: task 4 has no senders" {
		t.Fatalf("Start of a job without senders returned %v", err)
	}
}

// TestJobResultKeepsAdmissionError: a task the fabric refuses comes back from
// Result with the admission error itself — typed, unwrapped, and not a
// mismatch — while its neighbour inside the quota verifies exact.
func TestJobResultKeepsAdmissionError(t *testing.T) {
	opts := FatTreeOptions{
		Spines: 1, Leaves: 2, HostsPerLeaf: 2, Seed: 9,
		Tenants: []tenancy.TenantSpec{{ID: 1, Weight: 1}},
	}
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	quota := fc.Tenancy.Quota(1)
	fits := NewJob(core.TaskSpec{ID: core.MakeTaskID(1, 1), Receiver: opts.HostAt(0, 0), Op: core.OpSum, Rows: quota})
	fits.Send(opts.HostAt(1, 0), workload.Uniform(64, 2000, 1))
	over := NewJob(core.TaskSpec{ID: core.MakeTaskID(1, 2), Receiver: opts.HostAt(0, 1), Op: core.OpSum, Rows: quota})
	over.Send(opts.HostAt(1, 1), workload.Uniform(64, 2000, 2))
	if err := fc.Start(fits, over); err != nil {
		t.Fatal(err)
	}
	fc.Sim.Run(0)
	if _, err := fits.Result(); err != nil {
		t.Fatalf("the task inside the quota: %v", err)
	}
	res, err := over.Result()
	var overload *tenancy.OverloadError
	if res != nil || !errors.As(err, &overload) || overload.Tenant != 1 {
		t.Fatalf("the task past the quota returned %v, %v; want a *tenancy.OverloadError for tenant 1", res, err)
	}
	if errors.As(err, new(*core.MismatchError)) {
		t.Fatalf("a refusal must not read as a mismatch: %v", err)
	}
}
