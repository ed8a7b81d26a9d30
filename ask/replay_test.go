package ask

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/tenancy"
	"repro/internal/workload"
	"repro/internal/workload/scenario"
)

// replayTuples keeps the full-corpus round trips fast: record/replay
// equivalence is a structural property, not a scale one.
const replayTuples = 3_000

// runTimed replays timed per-sender streams through a fresh cluster and
// verifies the result exactly.
func runTimed(t *testing.T, seed int64, parts [][]core.TimedKV) *TaskResult {
	t.Helper()
	cl, err := NewCluster(Options{Hosts: len(parts) + 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for i, part := range parts {
		j.SendTimed(core.HostID(i+1), part)
	}
	res, err := cl.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestScenarioCorpusReplayMatchesDirect is the record/replay golden lock:
// for every corpus scenario, running the generator's timed stream directly
// and replaying the recorded v2 trace must be indistinguishable — same
// aggregate, same tuple counts, same virtual-time completion — because the
// trace captures everything the generator feeds the cluster.
func TestScenarioCorpusReplayMatchesDirect(t *testing.T) {
	const senders = 2
	for _, s := range scenario.All() {
		s := s.WithTuples(replayTuples)
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			// Direct: generate → split → timed aggregation.
			direct := runTimed(t, s.Seed,
				workload.SplitTimedRoundRobin(core.CollectTimed(s.TimedStream()), senders))

			// Recorded: generate → encode → decode → split → replay.
			var buf bytes.Buffer
			if _, err := workload.WriteTimedTrace(&buf, s.Header(), s.TimedStream()); err != nil {
				t.Fatal(err)
			}
			hdr, tkvs, err := workload.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if hdr.Scenario != s.Name {
				t.Fatalf("trace header names %q", hdr.Scenario)
			}
			replay := runTimed(t, s.Seed, workload.SplitTimedRoundRobin(tkvs, senders))

			if !replay.Result.Equal(direct.Result) {
				t.Fatalf("replay result diverged: %s", replay.Result.Diff(direct.Result, 8))
			}
			if replay.Elapsed != direct.Elapsed {
				t.Fatalf("replay elapsed %v, direct %v", replay.Elapsed, direct.Elapsed)
			}
			if replay.Switch.TuplesIn != direct.Switch.TuplesIn {
				t.Fatalf("replay switch saw %d tuples, direct %d",
					replay.Switch.TuplesIn, direct.Switch.TuplesIn)
			}

			// Pacing proof: the task cannot complete before the last tuple
			// has even arrived, so elapsed covers the trace's span.
			last := tkvs[len(tkvs)-1].At
			if time.Duration(direct.Elapsed) < last {
				t.Fatalf("elapsed %v < last arrival %v: pacing did not take effect",
					time.Duration(direct.Elapsed), last)
			}
		})
	}
}

// TestScenarioCorpusFatTreeTenantRoundTrip extends the record/replay lock to
// the multi-tenant fabric: two corpus scenarios, one per tenant, run
// concurrently through a 2-tenant fat-tree — once straight from the
// generators, once from the encoded-then-decoded v2 traces. The partitioned,
// admission-controlled fabric must be indistinguishable between the two:
// same per-tenant aggregates, same virtual completion times, same per-task
// switch counters.
func TestScenarioCorpusFatTreeTenantRoundTrip(t *testing.T) {
	const senders = 2
	scenarios := map[core.TenantID]string{1: "flash-crowd", 2: "mixed-diurnal-growth"}

	// load returns a tenant's per-sender streams twice: straight from the
	// generator, and through a trace encode/decode round trip.
	load := func(name string) (direct, replay [][]core.TimedKV) {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s = s.WithTuples(replayTuples)
		direct = workload.SplitTimedRoundRobin(core.CollectTimed(s.TimedStream()), senders)
		var buf bytes.Buffer
		if _, err := workload.WriteTimedTrace(&buf, s.Header(), s.TimedStream()); err != nil {
			t.Fatal(err)
		}
		hdr, tkvs, err := workload.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.Scenario != name {
			t.Fatalf("trace header names %q, want %q", hdr.Scenario, name)
		}
		return direct, workload.SplitTimedRoundRobin(tkvs, senders)
	}

	run := func(parts map[core.TenantID][][]core.TimedKV) map[core.TenantID]*TaskResult {
		opts := FatTreeOptions{
			Spines: 2, Leaves: 3, HostsPerLeaf: 2, Seed: 23,
			Tenants: []tenancy.TenantSpec{{ID: 1, Weight: 1}, {ID: 2, Weight: 1}},
		}
		fc, err := NewFatTreeCluster(opts)
		if err != nil {
			t.Fatal(err)
		}
		tenants := []core.TenantID{1, 2}
		jobs := make([]*Job, len(tenants))
		for i, tn := range tenants {
			jobs[i] = NewJob(core.TaskSpec{ID: core.MakeTaskID(tn, 1), Receiver: opts.HostAt(0, i), Op: core.OpSum})
			for j, part := range parts[tn] {
				jobs[i].SendTimed(opts.HostAt(1+j, i), part) // tenants side by side on the sender leaves
			}
		}
		results, err := fc.Run(jobs...)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[core.TenantID]*TaskResult)
		for i, tn := range tenants {
			out[tn] = results[i]
		}
		return out
	}

	directParts := make(map[core.TenantID][][]core.TimedKV)
	replayParts := make(map[core.TenantID][][]core.TimedKV)
	for tn, name := range scenarios {
		directParts[tn], replayParts[tn] = load(name)
	}
	direct := run(directParts)
	replay := run(replayParts)
	for tn := range scenarios {
		d, r := direct[tn], replay[tn]
		if !r.Result.Equal(d.Result) {
			t.Fatalf("tenant %d: replay result diverged: %s", tn, r.Result.Diff(d.Result, 8))
		}
		if r.Elapsed != d.Elapsed {
			t.Fatalf("tenant %d: replay elapsed %v, direct %v", tn, r.Elapsed, d.Elapsed)
		}
		if r.Switch != d.Switch {
			t.Fatalf("tenant %d: fabric counters diverged:\nreplay %+v\ndirect %+v", tn, r.Switch, d.Switch)
		}
	}
}

// TestScenarioCorpusTimedDeterminism locks seed → simulation determinism
// end to end: two full timed runs of the same scenario agree on every
// counter, and the sim clock (not the wall clock) carried the arrivals.
func TestScenarioCorpusTimedDeterminism(t *testing.T) {
	s, err := scenario.ByName("mixed-diurnal-growth")
	if err != nil {
		t.Fatal(err)
	}
	s = s.WithTuples(replayTuples)
	parts := workload.SplitTimedRoundRobin(core.CollectTimed(s.TimedStream()), 3)
	a := runTimed(t, s.Seed, parts)
	b := runTimed(t, s.Seed, parts)
	if a.Elapsed != b.Elapsed || a.Switch != b.Switch || a.Recv != b.Recv {
		t.Fatalf("two identical timed runs diverged:\n%+v\n%+v", a, b)
	}
	if a.Elapsed == sim.Time(0) {
		t.Fatal("no virtual time elapsed")
	}
}

// TestTimedMatchesUntimedResult checks the timed path changes *when*
// tuples move, never *what* they aggregate to: the same records replayed
// with and without timestamps produce the same result. And it is the
// regression test of the lift that makes a plain stream a timed one: the
// records with every arrival at offset zero, replayed through the timed API,
// are indistinguishable from the plain streams — same result, same virtual
// completion time, same receiver and switch counters.
func TestTimedMatchesUntimedResult(t *testing.T) {
	s, err := scenario.ByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	s = s.WithTuples(replayTuples)
	tkvs := core.CollectTimed(s.TimedStream())
	parts := workload.SplitTimedRoundRobin(tkvs, 2)
	timed := runTimed(t, s.Seed, parts)

	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}, Op: core.OpSum}
	data := map[core.HostID][]core.KV{}
	zeroed := make([][]core.TimedKV, len(parts))
	for i, part := range parts {
		kvs := make([]core.KV, len(part))
		for j, tkv := range part {
			kvs[j] = tkv.KV
			zeroed[i] = append(zeroed[i], core.TimedKV{KV: tkv.KV})
		}
		data[core.HostID(i+1)] = kvs
	}
	untimed := run(t, Options{Hosts: 3, Seed: s.Seed}, spec, data)
	if !timed.Result.Equal(untimed.Result) {
		t.Fatalf("timed and untimed runs disagree: %s", timed.Result.Diff(untimed.Result, 8))
	}
	if timed.Elapsed <= untimed.Elapsed {
		t.Fatalf("the paced replay took %v, no longer than the back-to-back %v", timed.Elapsed, untimed.Elapsed)
	}
	zero := runTimed(t, s.Seed, zeroed)
	if !zero.Result.Equal(untimed.Result) || zero.Elapsed != untimed.Elapsed || zero.Recv != untimed.Recv || zero.Switch != untimed.Switch {
		t.Fatalf("a zero-offset trace and the plain streams diverged:\ntimed   %v %+v %+v\nuntimed %v %+v %+v",
			zero.Elapsed, zero.Recv, zero.Switch, untimed.Elapsed, untimed.Recv, untimed.Switch)
	}
}
