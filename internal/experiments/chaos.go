package experiments

import (
	"fmt"
	"time"

	"repro/ask"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The two fault-injection studies are one table function over two rows of
// data (chaosStudy): a golden fault-free run sets the timing scale, then
// every scenario replays the same task on a fresh deployment with its fault
// script applied, must reproduce the host-computed reference exactly, and
// reports what the fault cost (elapsed inflation, degraded-mode time, replay
// traffic) plus the study's own trailing columns. They run a fixed task, not
// chaos.Run's soak workloads — moving them there would move their tables.

// The fabric of the hierarchical study at every scale.
const (
	fabricChaosSpines       = 2
	fabricChaosLeaves       = 3
	fabricChaosHostsPerLeaf = 2
)

// chaosStudy is one fault-injection table as data.
type chaosStudy struct {
	title, note string
	// build constructs a fresh deployment on chaos.OutageConfig, so faults
	// stretch tasks instead of aborting them.
	build func() (*ask.Deployment, error)
	// task builds the study's task; streams are single-use generators, so
	// every run gets its own.
	task      func() *ask.Job
	scenarios []chaos.Scenario
	// tailHeader names the study's trailing columns; tail fills them.
	tailHeader []string
	tail       func(fab *ask.Deployment, res *ask.TaskResult, orch *chaos.Orchestrator) []any
}

// chaosTable runs a study. The first row is the golden run — the empty
// script — whose elapsed time is the scale every scenario's script is timed
// in, so faults land mid-task at any workload size.
func chaosTable(st chaosStudy) (*stats.Table, error) {
	t := &stats.Table{
		Title:  st.title,
		Note:   st.note,
		Header: append([]string{"scenario", "elapsed", "x golden", "exact", "degraded", "replays", "replay-merged"}, st.tailHeader...),
	}
	var golden time.Duration
	for _, sc := range append([]chaos.Scenario{{Name: "golden"}}, st.scenarios...) {
		fab, err := st.build()
		if err != nil {
			return nil, err
		}
		orch := chaos.New(fab)
		sc.Schedule.Apply(orch, golden)
		results, err := fab.Run(st.task())
		fab.Sim.Close() // the row below reads counters only
		if err != nil {
			return nil, fmt.Errorf("%s: scenario %s: %w", st.title, sc.Name, err)
		}
		res := results[0]
		if golden == 0 {
			golden = time.Duration(res.Elapsed)
		}
		// Degraded time: the task's own (a revocation degrades only the
		// task) or the longest any daemon spent host-only, whichever is
		// larger.
		degraded := res.Degraded
		var replays, merged int64
		for _, h := range fab.Hosts() {
			fs := fab.Daemon(h).FailoverStats()
			replays += fs.ReplaysSent
			merged += fs.ReplayTuplesMerged
			if fs.DegradedTime > degraded {
				degraded = fs.DegradedTime
			}
		}
		row := []any{sc.Name, time.Duration(res.Elapsed), float64(res.Elapsed) / float64(golden), true, degraded, replays, merged}
		t.AddRow(append(row, st.tail(fab, res, orch)...)...)
	}
	return t, nil
}

// rackChaos runs the rack study: every scenario of the standard chaos library
// against one multi-sender aggregation task.
func rackChaos(quick bool) (*stats.Table, error) {
	// Sending hosts (the receiver is host 0), and each one's distinct keys
	// and stream length. The full scale's streams are long enough that a
	// switch outage spans several probe intervals, so silence detection
	// (probe timeouts) engages as well as epoch detection.
	senders, distinct, tuples := 3, 2048, int64(300_000)
	if quick {
		senders, distinct, tuples = 2, 512, 40_000
	}
	const taskID, receiver, firstSender = 1, 0, 1
	task := func() *ask.Job {
		j := ask.NewJob(core.TaskSpec{ID: taskID, Receiver: receiver, Op: core.OpSum})
		for h := core.HostID(firstSender); h < firstSender+core.HostID(senders); h++ {
			j.Send(h, workload.Uniform(distinct, tuples, seed+int64(h)))
		}
		return j
	}
	return chaosTable(chaosStudy{
		title: "Chaos: fault injection vs fault-free golden run",
		note: fmt.Sprintf("%d senders x %d tuples; every scenario must reproduce the golden result exactly; degraded = host-only time",
			senders, tuples),
		build: func() (*ask.Deployment, error) {
			cl, err := ask.NewCluster(ask.Options{Hosts: senders + 1, Config: chaos.OutageConfig(), Seed: seed})
			if err != nil {
				return nil, err
			}
			return &cl.Deployment, nil
		},
		task:       task,
		scenarios:  chaos.Scenarios(taskID, receiver, firstSender),
		tailHeader: []string{"sw-aggr", "events"},
		tail: func(_ *ask.Deployment, res *ask.TaskResult, orch *chaos.Orchestrator) []any {
			return []any{res.Switch.TuplesAggregated, len(orch.Log())}
		},
	})
}

// fabricChaos runs the hierarchical study, one cross-leaf task on the
// spine/leaf fabric: receiver on leaf 0, one sender on every other leaf, and
// one crash+reboot window per scenario against the task's elected spine
// (forcing re-election onto the alternate), the standby spine, and a
// sender's leaf. Outages land at 40–60% of the golden elapsed: task setup
// costs two control RPCs, so the stream occupies roughly the middle of the
// interval and earlier windows would miss it.
func fabricChaos(quick bool) (*stats.Table, error) {
	// Each sender's distinct keys and stream length. The full scale's
	// streams are long enough that an outage window spans several probe
	// intervals on every affected host.
	distinct, tuples := 2048, int64(200_000)
	if quick {
		distinct, tuples = 512, 20_000
	}
	opts := ask.FatTreeOptions{
		Spines: fabricChaosSpines, Leaves: fabricChaosLeaves, HostsPerLeaf: fabricChaosHostsPerLeaf,
		Config: chaos.OutageConfig(), Seed: seed,
	}
	const taskID = 1 // the fabric elects spine taskID mod Spines for it
	task := func() *ask.Job {
		j := ask.NewJob(core.TaskSpec{ID: taskID, Receiver: opts.HostAt(0, 0), Op: core.OpSum})
		for l := 1; l < fabricChaosLeaves; l++ {
			h := opts.HostAt(l, 0)
			j.Send(h, workload.Uniform(distinct, tuples, seed+int64(h)))
		}
		return j
	}
	outage := func(name string, kind chaos.EventKind, addr core.HostID) chaos.Scenario {
		return chaos.Scenario{Name: name, Schedule: chaos.Schedule{{Kind: kind, StartMil: 400, DurMil: 200, Addr: addr}}}
	}
	return chaosTable(chaosStudy{
		title: "Fabric chaos: spine/leaf outages vs fault-free golden run",
		note: fmt.Sprintf("%d spines x %d leaves, %d senders x %d tuples; one crash+reboot window at 40-60%% of golden; every scenario must reproduce the golden result exactly",
			fabricChaosSpines, fabricChaosLeaves, fabricChaosLeaves-1, tuples),
		build: func() (*ask.Deployment, error) {
			fc, err := ask.NewFatTreeCluster(opts)
			if err != nil {
				return nil, err
			}
			return &fc.Deployment, nil
		},
		task: task,
		scenarios: []chaos.Scenario{
			outage("spine-outage", chaos.EvSpineOutage, netsim.SpineAddr(taskID%fabricChaosSpines)),
			outage("standby-spine-outage", chaos.EvSpineOutage, netsim.SpineAddr((taskID+1)%fabricChaosSpines)),
			outage("leaf-outage", chaos.EvLeafOutage, netsim.LeafAddr(1)),
		},
		tailHeader: []string{"epoch"},
		tail: func(fab *ask.Deployment, _ *ask.TaskResult, _ *chaos.Orchestrator) []any {
			return []any{fab.FabricEpoch()}
		},
	})
}
