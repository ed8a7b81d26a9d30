package ask

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

func ftOptions(seed int64) FatTreeOptions {
	return FatTreeOptions{Spines: 2, Leaves: 3, HostsPerLeaf: 3, Seed: seed}
}

func TestFatTreeExactAcrossLeaves(t *testing.T) {
	opts := ftOptions(1)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(0, 1), opts.HostAt(1, 0), opts.HostAt(2, 2)}
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	for i, s := range senders {
		job.Send(s, workload.Uniform(1024, 8000, int64(10+i)))
	}
	res := runJob(t, &fc.Deployment, job)
	// Unlike the multi-rack forwarding core, every sender's leaf aggregates:
	// the fabric as a whole should absorb the bulk of all 24000 tuples.
	if res.Switch.TuplesAggregated < 20000 {
		t.Fatalf("fabric absorbed only %d of 24000 tuples", res.Switch.TuplesAggregated)
	}
}

func TestFatTreeSpineReaggregatesCrossLeafResidue(t *testing.T) {
	opts := ftOptions(2)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(1, 0), opts.HostAt(2, 0)}
	job := NewJob(core.TaskSpec{ID: 5, Receiver: receiver, Op: core.OpSum, Rows: 64})
	for i, s := range senders {
		// Many distinct keys against a tiny region: the sender leaves
		// conflict heavily and push residue across the fabric.
		job.Send(s, workload.Uniform(4096, 20000, int64(20+i)))
	}
	res := runJob(t, &fc.Deployment, job)
	spec := job.Spec
	spine := fc.Spines[fc.Net.SpineFor(spec.ID)].TaskStatsOf(spec.ID)
	if spine.TuplesAggregated == 0 {
		t.Fatal("spine absorbed nothing; hierarchical re-aggregation is not happening")
	}
	// Each tuple is absorbed at exactly one tier (or the host): leaf + spine
	// + host residue must account for every sent tuple exactly once.
	var leafAgg int64
	for _, sw := range fc.Leaves {
		leafAgg += sw.TaskStatsOf(spec.ID).TuplesAggregated
	}
	total := leafAgg + spine.TuplesAggregated + res.Recv.ResidueTuples
	if total != 40000 {
		t.Fatalf("conservation violated: leaf %d + spine %d + host %d = %d, want 40000",
			leafAgg, spine.TuplesAggregated, res.Recv.ResidueTuples, total)
	}
}

func TestFatTreeSingleLeafTaskNeedsNoSpineRegion(t *testing.T) {
	opts := ftOptions(3)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(1, 0)
	job := NewJob(core.TaskSpec{ID: 2, Receiver: receiver, Op: core.OpSum})
	job.Send(opts.HostAt(1, 1), workload.Uniform(512, 6000, 7))
	free := make([]int, len(fc.Spines))
	for sp, sw := range fc.Spines {
		free[sp] = sw.FreeRows()
	}
	runJob(t, &fc.Deployment, job)
	for sp, sw := range fc.Spines {
		if sw.FreeRows() != free[sp] {
			t.Fatalf("spine %d holds a region for a single-leaf task", sp)
		}
	}
}

func fatTreeTenantOpts(seed int64, weights ...int) FatTreeOptions {
	opts := FatTreeOptions{Spines: 2, Leaves: 2, HostsPerLeaf: 4, Seed: seed}
	for i, w := range weights {
		opts.Tenants = append(opts.Tenants, tenancy.TenantSpec{ID: core.TenantID(i + 1), Weight: w})
	}
	return opts
}

// runTenantTasks runs one cross-leaf task per tenant concurrently and
// returns each tenant's result, verified exact against its host-computed
// reference.
func runTenantTasks(t *testing.T, fc *FatTreeCluster, opts FatTreeOptions) map[core.TenantID]*TaskResult {
	t.Helper()
	jobs := make([]*Job, len(opts.Tenants))
	for i, ts := range opts.Tenants {
		jobs[i] = NewJob(core.TaskSpec{
			ID: core.MakeTaskID(ts.ID, uint32(100+i)), Receiver: opts.HostAt(0, i%opts.HostsPerLeaf), Op: core.OpSum,
		})
		jobs[i].Send(opts.HostAt(1, i%opts.HostsPerLeaf), workload.Uniform(512, 5000, int64(40+i)))
	}
	if err := fc.Start(jobs...); err != nil {
		t.Fatal(err)
	}
	fc.Sim.Run(0)
	out := make(map[core.TenantID]*TaskResult)
	for i, ts := range opts.Tenants {
		// A wrong result is a *core.MismatchError carrying the diff.
		res, err := jobs[i].Result()
		if err != nil {
			t.Fatalf("tenant %d: %v", ts.ID, err)
		}
		out[ts.ID] = res
	}
	return out
}

func TestFatTreeTenantsConcurrentExact(t *testing.T) {
	opts := fatTreeTenantOpts(11, 1, 2, 1, 4)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	results := runTenantTasks(t, fc, opts)
	for tn, res := range results {
		if res.Switch.TuplesAggregated == 0 {
			t.Fatalf("tenant %d got no in-network aggregation", tn)
		}
	}
	if got := fc.Tenancy.Snapshot(); len(got) != 4 {
		t.Fatalf("snapshot has %d tenants", len(got))
	}
	for _, u := range fc.Tenancy.Snapshot() {
		if u.InUse != 0 {
			t.Fatalf("tenant %d still holds %d rows after teardown", u.Tenant, u.InUse)
		}
	}
}

// fingerprintResults flattens per-tenant outcomes into a canonical string so
// two runs can be compared byte for byte.
func fingerprintResults(results map[core.TenantID]*TaskResult) string {
	tns := make([]core.TenantID, 0, len(results))
	for tn := range results {
		tns = append(tns, tn)
	}
	sort.Slice(tns, func(i, j int) bool { return tns[i] < tns[j] })
	s := ""
	for _, tn := range tns {
		r := results[tn]
		keys := make([]string, 0, len(r.Result))
		for k := range r.Result {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s += fmt.Sprintf("tenant=%d elapsed=%d recv=%+v switch=%+v nkeys=%d\n",
			tn, r.Elapsed, r.Recv, r.Switch, len(keys))
		for _, k := range keys {
			s += fmt.Sprintf("%q=%d;", k, r.Result[k])
		}
		s += "\n"
	}
	return s
}

func TestFatTreeFourTenantRunIsByteIdentical(t *testing.T) {
	run := func() string {
		opts := fatTreeTenantOpts(17, 1, 1, 2, 4)
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		return fingerprintResults(runTenantTasks(t, fc, opts))
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identically-seeded 4-tenant runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

func TestFatTreeOverQuotaRejectsTyped(t *testing.T) {
	opts := fatTreeTenantOpts(5, 1, 7)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	quota := fc.Tenancy.Quota(1)
	receiver := opts.HostAt(0, 0)
	sender := opts.HostAt(1, 0)
	w := workload.Uniform(64, 100, 3)
	over := NewJob(core.TaskSpec{ID: core.MakeTaskID(1, 1), Receiver: receiver, Op: core.OpSum, Rows: quota*2 + 2})
	over.Send(sender, w)
	_, err = fc.Run(over)
	var ov *tenancy.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("want tenancy.OverloadError, got %v", err)
	}
	if ov.Tenant != 1 || ov.Quota != quota {
		t.Fatalf("overload names tenant %d quota %d, want 1/%d", ov.Tenant, ov.Quota, quota)
	}
	// The rejection left nothing allocated: the same task fits in quota.
	fits := NewJob(core.TaskSpec{ID: core.MakeTaskID(1, 2), Receiver: receiver, Op: core.OpSum, Rows: quota &^ 1})
	fits.Send(sender, w)
	runJob(t, &fc.Deployment, fits)
}

// crossLeafSpec is a task of the given tenant whose one sender sits on
// leaf 1 and whose receiver sits on leaf 0, so it is placed at leaf 1 and at
// its spine.
func crossLeafSpec(opts FatTreeOptions, tenant core.TenantID, seq uint32, rows int) core.TaskSpec {
	return core.TaskSpec{
		ID: core.MakeTaskID(tenant, seq), Receiver: opts.HostAt(0, 0),
		Senders: []core.HostID{opts.HostAt(1, 0)}, Op: core.OpSum, Rows: rows,
	}
}

// A receiver that re-attaches while it still holds a placement of the live
// fabric epoch gets that placement back: its tenant is charged once, and
// the one teardown returns every row.
func TestFatTreeReattachChargesRowsOnce(t *testing.T) {
	opts := fatTreeTenantOpts(3, 1, 1)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	spec := crossLeafSpec(opts, 1, 1, 64)
	first, err := fc.allocRegion(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := fc.allocRegion(0, spec)
	if err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if fmt.Sprint(again) != fmt.Sprint(first) {
		t.Fatalf("re-attach placed %+v, want the held placement %+v", again, first)
	}
	if err := fc.freeRegion(spec.ID); err != nil {
		t.Fatal(err)
	}
	if got := fc.Tenancy.Snapshot()[0]; got.Tenant != 1 || got.InUse != 0 {
		t.Fatalf("first tenant after teardown: %+v, want tenant 1 holding 0 rows", got)
	}
	for i, sw := range fc.switches() {
		if got := sw.FreeRows(); got != fc.cfg.AARows {
			t.Fatalf("switch %d (leaves, then spines) has %d free rows after teardown, want %d", i, got, fc.cfg.AARows)
		}
	}
}

// Admission is the quota: a tenant that has filled its quota is refused,
// and its refusal leaves a peer's full quota free at every aggregation point.
func TestFatTreePeerInQuotaFitsAfterRefusal(t *testing.T) {
	opts := fatTreeTenantOpts(9, 1, 1)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.allocRegion(0, crossLeafSpec(opts, 1, 1, fc.Tenancy.Quota(1)&^1)); err != nil {
		t.Fatal(err)
	}
	_, err = fc.allocRegion(0, crossLeafSpec(opts, 1, 2, 2))
	var ov *tenancy.OverloadError
	if !errors.As(err, &ov) || ov.Tenant != 1 {
		t.Fatalf("tenant 1 past its quota: want its *tenancy.OverloadError, got %v", err)
	}
	info, err := fc.allocRegion(0, crossLeafSpec(opts, 2, 1, fc.Tenancy.Quota(2)&^1))
	if err != nil {
		t.Fatalf("tenant 2's in-quota request: %v", err)
	}
	if len(info.FetchFrom) != 2 {
		t.Fatalf("tenant 2 placed at %v, want its sender leaf and its spine", info.FetchFrom)
	}
}

// TestFatTreeTelemetryRefusesShards: a sharded fabric's lanes would stamp
// trace events with the root's clock and interleave the trace ring, so
// Telemetry with Shards > 1 is an error.
func TestFatTreeTelemetryRefusesShards(t *testing.T) {
	opts := ftOptions(1)
	opts.Telemetry, opts.Shards = true, 2
	if _, err := NewFatTreeCluster(opts); err == nil {
		t.Fatal("Telemetry with Shards 2 was accepted")
	}
}
