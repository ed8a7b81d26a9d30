package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/tenancy"
	"repro/internal/workload"
)

// The fabric and the tasks of the tenancy study at every scale.
const (
	tenancySpines = 2
	// tenancyLeaves includes the receiver leaf: all receivers sit on leaf 0
	// and tasks' senders round-robin over leaves 1..tenancyLeaves-1.
	tenancyLeaves = 3
	// tenancyTaskKeys is each fairness task's hot-set size, small enough to
	// fit the narrowest tenant's partition band so every admitted task
	// aggregates at full absorption and goodput is set purely by admitted
	// capacity.
	tenancyTaskKeys = 256
	// tenancyPace is the inter-arrival gap of each fairness sender's timed
	// stream. Senders are paced below the wire capacity of the narrowest
	// partition band (a narrow band fills fewer packet slots, §3.2.3, so a
	// backlogged narrow sender is wire-limited): the stream's rate, not its
	// band width, then sets per-task goodput, and a tenant's aggregate
	// goodput is purely its admitted capacity.
	tenancyPace = 250 * time.Nanosecond
	// tenancyKeysPerRow sets each utilization tenant's hot set to
	// tenancyKeysPerRow × its region rows: more keys than rows, so
	// absorption is limited by the AA rows rather than the offered load.
	tenancyKeysPerRow = 4
	// tenancyRowsPerTask is the fixed region size of every fairness task;
	// tenant quotas are divided into tasks of this size.
	tenancyRowsPerTask = 2048
	// tenancyRowFrac sets each tenant's region to quota/tenancyRowFrac rows
	// in the utilization sweep, keeping total pinned rows constant across
	// tenant counts.
	tenancyRowFrac = 8
)

// multiTenant is the multi-tenant fabric study: concurrent backlogged tenants
// share one spine/leaf fabric's AA pool under weighted allocation, and it
// measures how fairly the in-network aggregation capacity tracks the
// weights, and how much more work the pool does than under the paper's
// one-job-owns-the-switch model.
//
// Fairness is measured the way the allocator actually shares the pool:
// admission control over fixed-size tasks. Every task is identical
// (tenancyRowsPerTask rows, one sender, the same hot-set shape), so per-task
// goodput is statistically equal and a tenant's aggregate goodput is set by
// how many tasks its quota admits — which is what the weights apportion.
// Tenants submit one task beyond their quota to exercise the typed OVERLOAD
// rejection.
func multiTenant(quick bool) ([]*stats.Table, error) {
	// Each sender's stream length.
	perSender := int64(100_000)
	if quick {
		perSender = 20_000
	}
	fair, err := tenancyFairness(perSender)
	if err != nil {
		return nil, err
	}
	util, err := tenancyUtilization(perSender)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{fair, util}, nil
}

// tenantRun is one tenant's outcome in a concurrent multi-tenant run.
type tenantRun struct {
	weight   int
	rows     int
	absorbed int64 // tuples the fabric aggregated for this tenant
	offered  int64
	elapsed  time.Duration
}

// runTenants drives one concurrent run: len(weights) tenants, each with a
// receiver on leaf 0 and weight-many senders on every other leaf, all
// interleaved on the sim clock. Every result is verified exact before the
// stats are trusted.
func runTenants(perSender int64, weights []int) ([]tenantRun, error) {
	k := len(weights)
	wsum := 0
	for _, w := range weights {
		wsum += w
	}
	hostsPerLeaf := max(k, wsum)
	opts := ask.FatTreeOptions{
		Spines: tenancySpines, Leaves: tenancyLeaves, HostsPerLeaf: hostsPerLeaf,
		Seed: seed, Tenants: tenantSpecs(weights),
	}
	fc, err := ask.NewFatTreeCluster(opts)
	if err != nil {
		return nil, err
	}
	defer fc.Sim.Close()
	jobs := make([]*ask.Job, k)
	slot := 0 // next sender slot on each sender leaf (layout identical per leaf)
	for i, w := range weights {
		tn := core.TenantID(i + 1)
		rows := fc.Tenancy.Quota(tn) / tenancyRowFrac
		rows &^= 1
		j := ask.NewJob(core.TaskSpec{
			ID: core.MakeTaskID(tn, uint32(i+1)), Receiver: opts.HostAt(0, i),
			Op: core.OpSum, Rows: rows,
		})
		for l := 1; l < tenancyLeaves; l++ {
			for s := 0; s < w; s++ {
				j.Send(opts.HostAt(l, slot+s),
					workload.Uniform(tenancyKeysPerRow*rows, perSender, seed+int64(i*tenancyLeaves*wsum+l*wsum+s)))
			}
		}
		slot += w
		jobs[i] = j
	}
	results, err := fc.Run(jobs...)
	if err != nil {
		return nil, fmt.Errorf("tenancy: weights %v: %w", weights, err)
	}

	runs := make([]tenantRun, k)
	for i, j := range jobs {
		runs[i] = tenantRun{
			weight:   weights[i],
			rows:     j.Spec.Rows,
			absorbed: fc.TaskSwitchStats(j.Spec.ID).TuplesAggregated,
			offered:  perSender * int64(len(j.Spec.Senders)),
			elapsed:  time.Duration(results[i].Elapsed),
		}
	}
	return runs, nil
}

// tenantFairRun aggregates one tenant's admitted tasks in the fairness run.
type tenantFairRun struct {
	weight   int
	admitted int
	rejected int
	goodputV float64 // summed per-task absorbed tuple rate
}

func (r tenantFairRun) goodput() float64 { return r.goodputV }

// runTenantTasks fills every tenant's quota with identical fixed-size tasks
// (admission decides how many fit), submits one more to confirm the typed
// OVERLOAD rejection, and runs all admitted tasks concurrently.
func runTenantTasks(perSender int64, weights []int) ([]tenantFairRun, error) {
	k := len(weights)

	// First pass sizes the cluster: admitted counts follow from the quotas,
	// which depend only on weights and the config.
	probe, err := tenancy.NewManager(tenantSpecs(weights), core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	total := 0
	admitted := make([]int, k)
	for i := range weights {
		admitted[i] = probe.Quota(core.TenantID(i+1)) / tenancyRowsPerTask
		total += admitted[i]
	}
	const senderLeaves = tenancyLeaves - 1
	perLeaf := (total + senderLeaves - 1) / senderLeaves
	hostsPerLeaf := max(total, perLeaf) // total: the receiver slots on leaf 0

	opts := ask.FatTreeOptions{
		Spines: tenancySpines, Leaves: tenancyLeaves, HostsPerLeaf: hostsPerLeaf,
		Seed: seed, Tenants: tenantSpecs(weights),
	}
	fc, err := ask.NewFatTreeCluster(opts)
	if err != nil {
		return nil, err
	}
	defer fc.Sim.Close()

	var jobs []*ask.Job // every submission, in order
	probes := make(map[*ask.Job]bool)
	runs := make([]tenantFairRun, k)
	t := 0
	leafSlot := make([]int, tenancyLeaves)
	for i, w := range weights {
		runs[i] = tenantFairRun{weight: w, admitted: admitted[i], rejected: 1}
		for n := 0; n < admitted[i]; n++ {
			leaf := 1 + t%senderLeaves
			sender := opts.HostAt(leaf, leafSlot[leaf])
			leafSlot[leaf]++
			wl := workload.Uniform(tenancyTaskKeys, perSender, seed+int64(t))
			jobs = append(jobs, &ask.Job{
				Spec: core.TaskSpec{
					ID: core.MakeTaskID(core.TenantID(i+1), uint32(n+1)), Receiver: opts.HostAt(0, t),
					Op: core.OpSum, Rows: tenancyRowsPerTask, Senders: []core.HostID{sender},
				},
				Streams: map[core.HostID]core.TimedStream{sender: paced(wl.Stream(), tenancyPace)},
				Want:    wl.Reference(core.OpSum),
			})
			t++
		}
		// One task past the quota: its admission runs on the sim clock after
		// the tenant's real tasks have filled the quota (driver processes run
		// in submission order), so it must be rejected with the typed
		// overload error.
		probe := &ask.Job{
			Spec: core.TaskSpec{
				ID: core.MakeTaskID(core.TenantID(i+1), uint32(admitted[i]+1)), Receiver: opts.HostAt(0, 0),
				Op: core.OpSum, Rows: tenancyRowsPerTask, Senders: []core.HostID{opts.HostAt(1, 0)},
			},
			Streams: map[core.HostID]core.TimedStream{opts.HostAt(1, 0): core.SliceStream(nil).Timed()},
		}
		jobs, probes[probe] = append(jobs, probe), true
	}
	if err := fc.Start(jobs...); err != nil {
		return nil, fmt.Errorf("tenancy: weights %v: %w", weights, err)
	}
	fc.Sim.Run(0)
	for _, j := range jobs {
		id := j.Spec.ID
		res, err := j.Result()
		if probes[j] {
			if !errors.As(err, new(*tenancy.OverloadError)) {
				return nil, fmt.Errorf("tenancy: weights %v: over-quota task %d returned %v, want a *tenancy.OverloadError", weights, id, err)
			}
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("tenancy: weights %v: task %d: %w", weights, id, err)
		}
		runs[id.Tenant()-1].goodputV += float64(fc.TaskSwitchStats(id).TuplesAggregated) / time.Duration(res.Elapsed).Seconds()
	}
	return runs, nil
}

// paced lifts a stream into a timed one with fixed inter-arrival gaps.
func paced(s core.Stream, gap time.Duration) core.TimedStream {
	var i int64
	return func() (core.TimedKV, bool) {
		kv, ok := s()
		if !ok {
			return core.TimedKV{}, false
		}
		tkv := core.TimedKV{KV: kv, At: time.Duration(i) * gap}
		i++
		return tkv, true
	}
}

func tenantSpecs(weights []int) []tenancy.TenantSpec {
	specs := make([]tenancy.TenantSpec, len(weights))
	for i, w := range weights {
		specs[i] = tenancy.TenantSpec{ID: core.TenantID(i + 1), Weight: w}
	}
	return specs
}

// fairnessDev returns the largest relative deviation of any tenant's
// goodput share from its weight share (0.05 = 5%).
func fairnessDev(runs []tenantFairRun) float64 {
	var wsum int
	var gsum float64
	for _, r := range runs {
		wsum += r.weight
		gsum += r.goodput()
	}
	var dev float64
	for _, r := range runs {
		want := float64(r.weight) / float64(wsum)
		got := r.goodput() / gsum
		if d := math.Abs(got-want) / want; d > dev {
			dev = d
		}
	}
	return dev
}

// tenancyFairness sweeps weight vectors over backlogged tenants and checks
// weighted max-min fairness: each tenant's share of the fabric's aggregation
// goodput should track its weight share, with over-quota submissions
// rejected by typed admission control.
func tenancyFairness(perSender int64) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Tenancy: weighted fairness of in-network aggregation goodput",
		Note: fmt.Sprintf("%d spines × %d leaves; quotas filled with identical %d-row, %d-key tasks (%d tuples/sender), +1 over-quota submission each",
			tenancySpines, tenancyLeaves, tenancyRowsPerTask, tenancyTaskKeys, perSender),
		Header: []string{"weights", "admitted (rejected)", "per-tenant goodput (Mtuples/s)", "goodput shares", "weight shares", "max dev %"},
	}
	for _, weights := range [][]int{{1, 1}, {1, 1, 1, 1}, {1, 3}, {1, 1, 2, 4}} {
		runs, err := runTenantTasks(perSender, weights)
		if err != nil {
			return nil, err
		}
		var gsum float64
		wsum := 0
		for _, r := range runs {
			wsum += r.weight
			gsum += r.goodput()
		}
		var ad, gp, gs, ws []string
		for _, r := range runs {
			ad = append(ad, fmt.Sprintf("%d(%d)", r.admitted, r.rejected))
			gp = append(gp, fmt.Sprintf("%.2f", r.goodput()/1e6))
			gs = append(gs, fmt.Sprintf("%.1f%%", 100*r.goodput()/gsum))
			ws = append(ws, fmt.Sprintf("%.1f%%", 100*float64(r.weight)/float64(wsum)))
		}
		t.AddRow(joinInts(weights), strings.Join(ad, " "), strings.Join(gp, " "), strings.Join(gs, " "),
			strings.Join(ws, " "), 100*fairnessDev(runs))
	}
	return t, nil
}

// tenancyUtilization contrasts the paper's one-job-owns-the-switch model
// with a shared pool: tenants' hot sets are disjoint by construction (the
// keyspace is partitioned), so concurrent tenants multiply the useful work
// the same AA pool performs while pinning no more rows than the single job.
func tenancyUtilization(perSender int64) (*stats.Table, error) {
	t := &stats.Table{
		Title: "Tenancy: AA pool utilization vs concurrent tenants (disjoint hot sets)",
		Note: fmt.Sprintf("%d spines × %d leaves; equal weights; regions = quota/%d so total pinned rows stay constant",
			tenancySpines, tenancyLeaves, tenancyRowFrac),
		Header: []string{"tenants", "pinned rows", "aggregate absorbed (Mtuples/s)", "absorbed % of offered"},
	}
	for _, k := range []int{1, 2, 4} {
		weights := make([]int, k)
		for i := range weights {
			weights[i] = 1
		}
		runs, err := runTenants(perSender, weights)
		if err != nil {
			return nil, err
		}
		var rows int
		var absorbed, offered int64
		var last time.Duration
		for _, r := range runs {
			rows += r.rows
			absorbed += r.absorbed
			offered += r.offered
			if r.elapsed > last {
				last = r.elapsed
			}
		}
		t.AddRow(k, rows, float64(absorbed)/last.Seconds()/1e6, 100*float64(absorbed)/float64(offered))
	}
	return t, nil
}

func joinInts(ws []int) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = fmt.Sprint(w)
	}
	return strings.Join(parts, ":")
}
