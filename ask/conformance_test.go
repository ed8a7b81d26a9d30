package ask_test

// One service, three fabrics: every way of running a task must give the
// exact keyed reduce of its input on every deployment. The table below is
// the fabric-independent contract of the cluster core; the per-fabric tests
// next to it (multirack_test.go, fattree_test.go) only check what a fabric
// adds — where tuples are absorbed, what state a switch holds.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/ask"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/tenancy"
)

// reduceByKey is the reference model: groupByKey().reduce(+) as a plain map
// fold, sharing no code with the system under test.
func reduceByKey(streams map[core.HostID][]core.KV) core.Result {
	out := make(map[string]int64)
	for _, kvs := range streams {
		for _, kv := range kvs {
			out[kv.Key] += kv.Val
		}
	}
	return out
}

// rack and fatTree hand a shell's core to the table below.
func rack(cl *ask.Cluster, err error) (*ask.Deployment, error) {
	if err != nil {
		return nil, err
	}
	return &cl.Deployment, nil
}

func fatTree(fc *ask.FatTreeCluster, err error) (*ask.Deployment, error) {
	if err != nil {
		return nil, err
	}
	return &fc.Deployment, nil
}

// Every fabric is built with nine hosts in three groups of three (the rack
// ignores the grouping), so one layout serves all: task i receives at host i
// of group 0 and has a group-local sender plus one sender in each other
// group.
var conformanceFabrics = []struct {
	name    string
	tenants int
	build   func(seed int64, cfg core.Config) (*ask.Deployment, error)
}{
	{"rack", 0, func(seed int64, cfg core.Config) (*ask.Deployment, error) {
		return rack(ask.NewCluster(ask.Options{Hosts: 9, Seed: seed, Config: cfg}))
	}},
	{"multirack", 0, func(seed int64, cfg core.Config) (*ask.Deployment, error) {
		return fatTree(ask.NewMultiRackCluster(ask.MultiRackOptions{Racks: 3, HostsPerRack: 3, Seed: seed, Config: cfg}))
	}},
	{"multirack+lossy", 0, func(seed int64, cfg core.Config) (*ask.Deployment, error) {
		host, fabric := netsim.DefaultLinkConfig(), netsim.DefaultLinkConfig()
		host.Fault.LossProb = 0.03
		fabric.Fault = netsim.Fault{LossProb: 0.03, ReorderProb: 0.05, ReorderDelay: 40 * time.Microsecond}
		return fatTree(ask.NewMultiRackCluster(ask.MultiRackOptions{Racks: 3, HostsPerRack: 3, Seed: seed, Config: cfg, HostLink: host, CoreLink: fabric}))
	}},
	{"fattree", 0, func(seed int64, cfg core.Config) (*ask.Deployment, error) {
		return fatTree(ask.NewFatTreeCluster(ask.FatTreeOptions{Spines: 2, Leaves: 3, HostsPerLeaf: 3, Seed: seed, Config: cfg}))
	}},
	{"fattree+2tenants", 2, func(seed int64, cfg core.Config) (*ask.Deployment, error) {
		return fatTree(ask.NewFatTreeCluster(ask.FatTreeOptions{
			Spines: 2, Leaves: 3, HostsPerLeaf: 3, Seed: seed, Config: cfg,
			Tenants: []tenancy.TenantSpec{{ID: 1, Weight: 1}, {ID: 2, Weight: 2}},
		}))
	}},
}

// conformanceTask lays out task i and generates its input: mixed-length
// keys so short, medium and long paths all carry tuples.
func conformanceTask(i, tenants int, seed int64) (core.TaskSpec, map[core.HostID][]core.KV) {
	spec := core.TaskSpec{
		ID: core.TaskID(i + 1), Receiver: core.HostID(i), Op: core.OpSum,
		Senders: []core.HostID{2, core.HostID(3 + i), core.HostID(6 + i)},
	}
	if tenants > 0 {
		spec.ID = core.MakeTaskID(core.TenantID(i%tenants+1), uint32(i+1))
	}
	data := make(map[core.HostID][]core.KV)
	for j, h := range spec.Senders {
		kvs := make([]core.KV, 4000)
		for n := range kvs {
			k := (int64(n)*2654435761 + seed + int64(j)) % 700
			key := fmt.Sprintf("k%d", k)
			if k%3 == 0 {
				key = fmt.Sprintf("a_rather_long_key_%06d", k)
			}
			kvs[n] = core.KV{Key: key, Val: k%9 + 1}
		}
		data[h] = kvs
	}
	return spec, data
}

// job is the Job for spec in which each of spec's senders streams its slice
// of data: back to back, or, paced, spread over the sim clock 50 ns apart.
func job(spec core.TaskSpec, data map[core.HostID][]core.KV, paced bool) *ask.Job {
	j := ask.NewJob(spec)
	j.Spec.Senders = nil
	for _, h := range spec.Senders {
		tkvs := make([]core.TimedKV, len(data[h]))
		for i, kv := range data[h] {
			tkvs[i] = core.TimedKV{KV: kv}
			if paced {
				tkvs[i].At = time.Duration(i) * 50 * time.Nanosecond
			}
		}
		j.SendTimed(h, tkvs)
	}
	return j
}

// runJob runs j alone on d; a result that differs from the job's reference
// is an error.
func runJob(t *testing.T, d *ask.Deployment, j *ask.Job) *ask.TaskResult {
	t.Helper()
	results, err := d.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func checkExact(t *testing.T, what string, res *ask.TaskResult, data map[core.HostID][]core.KV) {
	t.Helper()
	if want := reduceByKey(data); !res.Result.Equal(want) {
		t.Fatalf("%s differs from the keyed reduce: %s", what, res.Result.Diff(want, 8))
	}
	if res.Degraded != 0 {
		t.Fatalf("%s reports %v degraded on a fault-free run", what, res.Degraded)
	}
}

func TestConformance(t *testing.T) {
	for _, fab := range conformanceFabrics {
		fab := fab
		build := func(t *testing.T) *ask.Deployment {
			t.Helper()
			s, err := fab.build(31, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		t.Run(fab.name+"/plain", func(t *testing.T) {
			spec, data := conformanceTask(0, fab.tenants, 1)
			checkExact(t, "plain", runJob(t, build(t), job(spec, data, false)), data)
		})
		t.Run(fab.name+"/timed", func(t *testing.T) {
			spec, data := conformanceTask(0, fab.tenants, 2)
			res := runJob(t, build(t), job(spec, data, true))
			checkExact(t, "timed", res, data)
			if span := 3999 * 50 * time.Nanosecond; time.Duration(res.Elapsed) < span {
				t.Fatalf("timed task finished in %v, before its last arrival at %v", time.Duration(res.Elapsed), span)
			}
		})
		t.Run(fab.name+"/concurrent", func(t *testing.T) {
			s := build(t)
			var jobs [2]*ask.Job
			var inputs [2]map[core.HostID][]core.KV
			for i := range jobs {
				spec, data := conformanceTask(i, fab.tenants, int64(3+i))
				jobs[i], inputs[i] = job(spec, data, false), data
			}
			if err := s.Start(jobs[:]...); err != nil {
				t.Fatal(err)
			}
			if _, err := jobs[0].Result(); err == nil {
				t.Fatal("Result succeeded before the simulation ran")
			}
			s.Sim.Run(0)
			for i, j := range jobs {
				res, err := j.Result()
				if err != nil {
					t.Fatal(err)
				}
				checkExact(t, fmt.Sprintf("concurrent task %d", i), res, inputs[i])
			}
		})
	}
}

// TestInvalidSubmissions is the one task validator seen from outside: the
// same malformed submission draws the same error on every fabric.
func TestInvalidSubmissions(t *testing.T) {
	some := map[core.HostID]core.Stream{1: core.SliceStream(nil), 77: core.SliceStream(nil)}
	for _, tc := range []struct {
		name    string
		spec    core.TaskSpec
		streams map[core.HostID]core.Stream
		want    string
	}{
		{"no senders", core.TaskSpec{ID: 1, Receiver: 0}, some, "ask: task 1 has no senders"},
		{"unknown sender", core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 77}}, some, "ask: sender host 77 not in cluster"},
		{"unknown receiver", core.TaskSpec{ID: 1, Receiver: 99, Senders: []core.HostID{1}}, some, "ask: receiver host 99 not in cluster"},
		{"sender without stream", core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}}, some, "ask: no stream for sender host 2"},
	} {
		for _, fab := range conformanceFabrics {
			if fab.tenants > 0 || fab.name == "multirack+lossy" {
				continue // same types as the rows above
			}
			s, err := fab.build(1, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.StartTask(tc.spec, tc.streams); err == nil || err.Error() != tc.want {
				t.Errorf("%s on %s: StartTask returned %v, want %q", tc.name, fab.name, err, tc.want)
			}
			j := &ask.Job{Spec: tc.spec, Streams: make(map[core.HostID]core.TimedStream)}
			for h, s := range tc.streams {
				j.Streams[h] = s.Timed()
			}
			if _, err := s.Run(j); err == nil || err.Error() != "ask: task 1: "+tc.want {
				t.Errorf("%s on %s: Run returned %v, want %q", tc.name, fab.name, err, tc.want)
			}
		}
	}
	if _, err := ask.NewCluster(ask.Options{}); err == nil {
		t.Error("rack with zero hosts accepted")
	}
}

// TestInvalidTopologies: topology dimensions come from outside (flags,
// configs), so the constructors refuse what the fabric cannot address with an
// error instead of panicking inside netsim.
func TestInvalidTopologies(t *testing.T) {
	failoverWithShadow := core.DefaultConfig()
	failoverWithShadow.Failover = true
	for _, tc := range []struct {
		name string
		opts ask.FatTreeOptions
		want string
	}{
		{"zero", ask.FatTreeOptions{}, "need positive"},
		{"no spines", ask.FatTreeOptions{Leaves: 2, HostsPerLeaf: 2}, "need positive"},
		{"negative hosts", ask.FatTreeOptions{Spines: 1, Leaves: 2, HostsPerLeaf: -1}, "need positive"},
		{"too many leaves", ask.FatTreeOptions{Spines: 1, Leaves: 0x801, HostsPerLeaf: 1}, "fabric address space"},
		{"too many spines", ask.FatTreeOptions{Spines: 0x801, Leaves: 2, HostsPerLeaf: 1}, "fabric address space"},
		{"host IDs reach the switch range", ask.FatTreeOptions{Spines: 1, Leaves: 2, HostsPerLeaf: 0xF000/2 + 1}, "fabric address space"},
		{"host count overflows", ask.FatTreeOptions{Spines: 1, Leaves: 0x800, HostsPerLeaf: 1 << 62}, "fabric address space"},
		{"failover with shadow copies", ask.FatTreeOptions{Spines: 1, Leaves: 2, HostsPerLeaf: 1, Config: failoverWithShadow}, "Failover requires SwapThreshold 0"},
	} {
		if _, err := ask.NewFatTreeCluster(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("fat-tree, %s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for _, tc := range []struct {
		name string
		opts ask.MultiRackOptions
		want string
	}{
		{"zero", ask.MultiRackOptions{}, "need positive Racks"},
		{"negative hosts", ask.MultiRackOptions{Racks: 2, HostsPerRack: -1}, "need positive Racks"},
		{"too many racks", ask.MultiRackOptions{Racks: 0x801, HostsPerRack: 1}, "fabric address space"},
		{"host IDs reach the switch range", ask.MultiRackOptions{Racks: 3, HostsPerRack: 0xF000/3 + 1}, "fabric address space"},
		{"failover with shadow copies", ask.MultiRackOptions{Racks: 2, HostsPerRack: 1, Config: failoverWithShadow}, "Failover requires SwapThreshold 0"},
	} {
		if _, err := ask.NewMultiRackCluster(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("multi-rack, %s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestMultiRackUnderChaos drives the multi-rack deployment through the chaos
// orchestrator with no multi-rack-specific driver code: link and host faults
// keep conservation exact, and the switch half is the fat-tree's — outages
// need Config.Failover, region revocation stays a typed refusal.
func TestMultiRackUnderChaos(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Failover = true
	cfg.SwapThreshold = 0
	golden, err := conformanceFabrics[1].build(7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec, data := conformanceTask(0, 0, 5)
	res := runJob(t, golden, job(spec, data, false))
	checkExact(t, "golden run", res, data)
	scale := time.Duration(res.Elapsed)

	for _, sc := range []struct {
		name   string
		inject func(o *chaos.Orchestrator)
	}{
		// Host 2 is the receiver's rack-mate (its tuples aggregate at the
		// TOR), host 6 sits two racks away (its tuples cross the core).
		// Faults start at 1/20 of the fault-free duration: senders finish
		// streaming in its first third, the rest is the receiver's merge.
		{"blackhole-local-link", func(o *chaos.Orchestrator) { o.LinkBlackhole(scale/20, scale/4, 2) }},
		{"blackhole-remote-link", func(o *chaos.Orchestrator) { o.LinkBlackhole(scale/20, scale/4, 6) }},
		{"stall-remote-host", func(o *chaos.Orchestrator) { o.HostStall(scale/20, scale/4, 6) }},
		{"lossy-link-and-stall", func(o *chaos.Orchestrator) {
			o.LinkDegrade(0, scale, 3, netsim.Fault{LossProb: 0.1, DupProb: 0.02})
			o.HostStall(scale/20, scale/5, 2)
		}},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			mc, err := conformanceFabrics[1].build(7, cfg)
			if err != nil {
				t.Fatal(err)
			}
			orch := chaos.New(mc)
			sc.inject(orch)
			res := runJob(t, mc, job(spec, data, false))
			if want := reduceByKey(data); !res.Result.Equal(want) {
				t.Fatalf("conservation violated: %s", res.Result.Diff(want, 8))
			}
			if len(orch.Log()) < 2 {
				t.Fatalf("script fired %d injections, want the fault and its heal", len(orch.Log()))
			}
			if time.Duration(res.Elapsed) <= scale {
				t.Fatalf("faulted run took %v, no longer than the fault-free %v: the fault missed the task", time.Duration(res.Elapsed), scale)
			}
			for _, h := range mc.Hosts() {
				if mc.Daemon(h).Degraded() {
					t.Fatalf("host %d still degraded at quiescence", h)
				}
			}
		})
	}

	// The switch half of the surface: TORs answer to their leaf address and
	// take outages (TestMultiRackTOROutage runs them mid-stream); without
	// Config.Failover an outage is refused, as on the fat-tree.
	if err := golden.CrashSwitch(netsim.LeafAddr(1)); err != nil {
		t.Fatalf("CrashSwitch on a multi-rack TOR: %v", err)
	}
	if err := golden.RebootSwitch(netsim.LeafAddr(1)); err != nil {
		t.Fatalf("RebootSwitch on a multi-rack TOR: %v", err)
	}
	if err := golden.CrashSwitch(netsim.SpineAddr(0)); err == nil {
		t.Fatal("the forwarding core has no fabric address, yet CrashSwitch accepted one")
	}
	plainCluster, err := conformanceFabrics[1].build(7, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, outage := range []func(core.HostID) error{plainCluster.CrashSwitch, plainCluster.RebootSwitch} {
		if err := outage(netsim.LeafAddr(0)); err == nil || !strings.Contains(err.Error(), "require Config.Failover") {
			t.Fatalf("switch outage without Config.Failover returned %v, want the require-Failover error", err)
		}
	}
	var unsupported *ask.UnsupportedError
	if err := golden.RevokeRegion(spec.ID, spec.Receiver); !errors.As(err, &unsupported) {
		t.Fatalf("RevokeRegion on the multi-rack fabric returned %v, want *ask.UnsupportedError", err)
	}
}

// TestMultiRackTOROutage is what folding the multi-rack fabric into the
// fat-tree buys: a TOR crashes and reboots mid-stream — the receiver's, then
// a remote sender's — and the task, with one rack-local and two remote
// senders, still aggregates exactly, through the fat-tree's fabric-wide epoch
// and replay recovery and no multi-rack failover code. Two runs of each
// outage are byte-identical.
func TestMultiRackTOROutage(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Failover = true
	cfg.SwapThreshold = 0
	// Receiver 0 and sender 2 share rack 0; senders 3 and 6 sit in racks 1
	// and 2. 20 000 tuples per sender arrive 50 ns apart, so the streams span
	// exactly 1 ms and an outage over [400 µs, 600 µs) is mid-stream.
	spec := core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum, Senders: []core.HostID{2, 3, 6}}
	data := make(map[core.HostID][]core.KV)
	for j, h := range spec.Senders {
		kvs := make([]core.KV, 20000)
		for n := range kvs {
			k := (int64(n)*2654435761 + int64(j)) % 900
			kvs[n] = core.KV{Key: fmt.Sprintf("k%d", k), Val: k%7 + 1}
		}
		data[h] = kvs
	}
	type outcome struct {
		res     *ask.TaskResult
		now     int64
		replays int64
	}
	run := func(t *testing.T, tor int) outcome {
		t.Helper()
		fc, err := ask.NewMultiRackCluster(ask.MultiRackOptions{Racks: 3, HostsPerRack: 3, Seed: 5, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		orch := chaos.New(&fc.Deployment)
		orch.SwitchOutage(netsim.LeafAddr(tor), 400*time.Microsecond, 200*time.Microsecond)
		res := runJob(t, &fc.Deployment, job(spec, data, true))
		if want := reduceByKey(data); !res.Result.Equal(want) {
			t.Fatalf("conservation violated: %s", res.Result.Diff(want, 8))
		}
		if got := fc.FabricEpoch(); got != 3 {
			t.Fatalf("fabric epoch %d, want 3 (crash and reboot each bump it)", got)
		}
		// The receiver TOR stays the task's one aggregation point across the
		// re-allocation the epoch bumps force.
		if want := *fc.Leaves[0].TaskStatsOf(spec.ID); res.Switch != want {
			t.Fatalf("TaskResult.Switch %+v is not the receiver TOR's %+v", res.Switch, want)
		}
		out := outcome{res: res, now: int64(fc.Sim.Now())}
		for _, h := range fc.Hosts() {
			if fc.Daemon(h).Degraded() {
				t.Fatalf("host %d still degraded at quiescence", h)
			}
			out.replays += fc.Daemon(h).FailoverStats().ReplaysSent
		}
		if out.replays == 0 {
			t.Fatal("no replays: the outage missed the stream")
		}
		if res.Degraded == 0 {
			t.Fatal("task reports no degraded time across a TOR outage")
		}
		return out
	}
	for _, tc := range []struct {
		name string
		tor  int
	}{{"receiver-TOR", 0}, {"remote-sender-TOR", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			first, second := run(t, tc.tor), run(t, tc.tor)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("two runs of the same outage differ:\n%+v\n%+v", first, second)
			}
		})
	}
}
