package chaos_test

// Correctness-invariant tests: every scripted fault scenario must produce an
// aggregation result identical to the fault-free golden run on the same seed
// and workload, and the failure-model telemetry (degraded time, re-attach,
// replays, bounded retries) must reflect what the script injected.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/ask"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/workload"
)

const (
	testSenders = 2
	testTuples  = 40_000
	testSeed    = 7
)

func failoverOptions() ask.Options {
	c := core.DefaultConfig()
	c.SwapThreshold = 0 // failover replay cannot attribute swap fetches
	c.Failover = true
	return ask.Options{Hosts: testSenders + 1, Config: c, Seed: testSeed}
}

// buildTask is the test task: testSenders uniform streams into host 0, with
// its reference.
func buildTask() *ask.Job {
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for i := 0; i < testSenders; i++ {
		h := core.HostID(i + 1)
		job.Send(h, workload.Uniform(512, testTuples, testSeed+int64(h)))
	}
	return job
}

// runJob runs j alone on cl and fails the test on any error, a result that
// differs from the job's reference included.
func runJob(t *testing.T, cl *ask.Cluster, j *ask.Job) *ask.TaskResult {
	t.Helper()
	results, err := cl.Run(j)
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

// goldenElapsed runs the fault-free task once and returns its duration, the
// timing scale the scenarios use to land faults mid-task.
func goldenElapsed(t *testing.T) time.Duration {
	t.Helper()
	cl, err := ask.NewCluster(failoverOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := runJob(t, cl, buildTask())
	if res.Degraded != 0 {
		t.Fatalf("golden run reports degraded time %v", res.Degraded)
	}
	return time.Duration(res.Elapsed)
}

func TestEveryScenarioMatchesGolden(t *testing.T) {
	scale := goldenElapsed(t)
	spec := buildTask().Spec
	for _, sc := range chaos.Scenarios(spec.ID, spec.Receiver, spec.Senders[0]) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			cl, err := ask.NewCluster(failoverOptions())
			if err != nil {
				t.Fatal(err)
			}
			orch := chaos.New(&cl.Deployment)
			sc.Schedule.Apply(orch, scale)
			runJob(t, cl, buildTask())
			if len(orch.Log()) == 0 {
				t.Fatal("scenario injected no events")
			}
		})
	}
}

func TestSwitchRebootDegradesAndReattaches(t *testing.T) {
	// A mid-stream switch outage: the result must still match the fault-free
	// run, the task must report non-zero degraded (host-only) time, senders
	// must replay their history to reconcile lost in-switch state, and the
	// switch's per-task aggregation counter must resume increasing after the
	// reboot — the re-attach.
	spec := buildTask().Spec
	cl, err := ask.NewCluster(failoverOptions())
	if err != nil {
		t.Fatal(err)
	}
	orch := chaos.New(&cl.Deployment)
	const crashAt, rebootAt = 300 * time.Microsecond, 400 * time.Microsecond
	orch.SwitchOutage(ask.TheSwitch, crashAt, rebootAt-crashAt)
	var aggAtReboot int64 = -1
	cl.Sim.At(cl.Sim.Now().Add(rebootAt+time.Microsecond), func() {
		aggAtReboot = cl.Switch.TaskStatsOf(spec.ID).TuplesAggregated
	})
	res := runJob(t, cl, buildTask())
	if res.Degraded <= 0 {
		t.Fatalf("Degraded = %v, want > 0", res.Degraded)
	}
	if aggAtReboot <= 0 {
		t.Fatalf("no switch aggregation before the crash (aggAtReboot=%d); retune crash time", aggAtReboot)
	}
	final := cl.Switch.TaskStatsOf(spec.ID).TuplesAggregated
	if final <= aggAtReboot {
		t.Fatalf("switch aggregation did not resume after reboot: %d at reboot, %d final", aggAtReboot, final)
	}
	if cl.Switch.Epoch() != 2 || cl.Switch.Stats().Reboots != 1 {
		t.Fatalf("switch epoch/reboots = %d/%d", cl.Switch.Epoch(), cl.Switch.Stats().Reboots)
	}
	var replays int64
	var sawEpoch, sawDegraded bool
	for h := core.HostID(0); h < core.HostID(testSenders+1); h++ {
		fs := cl.Daemon(h).FailoverStats()
		replays += fs.ReplaysSent
		sawEpoch = sawEpoch || fs.EpochChanges > 0
		sawDegraded = sawDegraded || fs.DegradedTime > 0
		if cl.Daemon(h).Epoch() != 2 {
			t.Fatalf("host %d never observed epoch 2", h)
		}
		if cl.Daemon(h).Degraded() {
			t.Fatalf("host %d still degraded after recovery", h)
		}
	}
	if replays == 0 || !sawEpoch || !sawDegraded {
		t.Fatalf("failover telemetry missing: replays=%d epoch=%v degraded=%v", replays, sawEpoch, sawDegraded)
	}
}

func TestChaosRunsAreDeterministic(t *testing.T) {
	spec := buildTask().Spec
	run := func() (time.Duration, int64) {
		cl, err := ask.NewCluster(failoverOptions())
		if err != nil {
			t.Fatal(err)
		}
		orch := chaos.New(&cl.Deployment)
		// Loss plus an outage: both rng-driven fault paths in one run.
		orch.LinkDegrade(0, time.Millisecond, spec.Senders[0], netsim.Fault{LossProb: 0.1})
		orch.SwitchOutage(ask.TheSwitch, 250*time.Microsecond, 150*time.Microsecond)
		res := runJob(t, cl, buildTask())
		return time.Duration(res.Elapsed), cl.Switch.TaskStatsOf(spec.ID).TuplesAggregated
	}
	e1, a1 := run()
	e2, a2 := run()
	if e1 != e2 || a1 != a2 {
		t.Fatalf("identical seeds diverged: elapsed %v vs %v, aggregated %d vs %d", e1, e2, a1, a2)
	}
}

// TestRegionRevocationDrainsExactlyOnce revokes the task's region at 40% of
// the golden run, once through the orchestrator directly and once as an
// EvRevokeRegion event through Schedule.Apply: both must drain the absorbed
// partials exactly once.
func TestRegionRevocationDrainsExactlyOnce(t *testing.T) {
	scale := goldenElapsed(t)
	spec := buildTask().Spec
	for _, inject := range []struct {
		name   string
		revoke func(*chaos.Orchestrator)
	}{
		{"orchestrator", func(o *chaos.Orchestrator) { o.RevokeRegion(scale*2/5, spec.ID, spec.Receiver) }},
		{"event", func(o *chaos.Orchestrator) {
			chaos.Schedule{{Kind: chaos.EvRevokeRegion, StartMil: 400, Task: spec.ID, Host: spec.Receiver}}.Apply(o, scale)
		}},
	} {
		revoke := inject.revoke
		t.Run(inject.name, func(t *testing.T) {
			cl, err := ask.NewCluster(failoverOptions())
			if err != nil {
				t.Fatal(err)
			}
			orch := chaos.New(&cl.Deployment)
			revoke(orch)
			res := runJob(t, cl, buildTask())
			if cl.Switch.Stats().Revocations != 1 || len(orch.Log()) != 1 {
				t.Fatalf("Revocations = %d, injections = %d", cl.Switch.Stats().Revocations, len(orch.Log()))
			}
			// Aggregation stopped at revocation: strictly less in-switch work than
			// the fault-free run (which absorbs the entire stream).
			if agg := res.Switch.TuplesAggregated; agg <= 0 || agg >= int64(testSenders)*testTuples {
				t.Fatalf("TuplesAggregated = %d, want partial absorption", agg)
			}
			if res.Recv.Degraded <= 0 {
				t.Fatalf("receiver task Degraded = %v, want > 0 (post-revocation host-only time)", res.Recv.Degraded)
			}
		})
	}
}

// TestScenarioLibraryKeepsItsFractions pins the data library to the
// fractions of the golden duration its scripts were written in (the
// pre-data closures: 1/4, 3/20, ...): every one is exact in thousandths, so
// an event lands on the same nanosecond at any scale, and Schedule.String
// prints the window those fractions give.
func TestScenarioLibraryKeepsItsFractions(t *testing.T) {
	type frac struct{ num, den int64 }
	type window struct{ start, dur frac }
	want := map[string][]window{
		"switch-reboot":     {{frac{1, 4}, frac{1, 4}}},
		"double-reboot":     {{frac{1, 5}, frac{3, 20}}, {frac{3, 5}, frac{3, 20}}},
		"region-revoked":    {{frac{3, 10}, frac{0, 1}}},
		"link-loss":         {{frac{1, 5}, frac{1, 2}}},
		"link-blackhole":    {{frac{3, 10}, frac{1, 10}}},
		"host-stall":        {{frac{3, 10}, frac{1, 10}}},
		"reboot-under-loss": {{frac{0, 1}, frac{1, 1}}, {frac{1, 4}, frac{1, 4}}},
	}
	lib := chaos.Scenarios(1, 0, 1)
	if len(lib) != len(want) {
		t.Fatalf("library has %d scenarios, want %d", len(lib), len(want))
	}
	for _, sc := range lib {
		ws := want[sc.Name]
		if len(ws) != len(sc.Schedule) {
			t.Fatalf("%s: %d events, want %d", sc.Name, len(sc.Schedule), len(ws))
		}
		printed := strings.Split(sc.Schedule.String(), "\n")
		for i, ev := range sc.Schedule {
			for _, scale := range []time.Duration{1, 778_044, 2_553_127, 3_011_003, time.Second + 7} {
				for _, c := range []struct {
					mil int64
					f   frac
				}{{ev.StartMil, ws[i].start}, {ev.DurMil, ws[i].dur}} {
					if got, was := scale*time.Duration(c.mil)/1000, scale*time.Duration(c.f.num)/time.Duration(c.f.den); got != was {
						t.Errorf("%s[%d] at scale %v: %d/1000 lands at %v, %d/%d at %v", sc.Name, i, scale, c.mil, got, c.f.num, c.f.den, was)
					}
				}
			}
			start := 1000 * ws[i].start.num / ws[i].start.den
			end := start + 1000*ws[i].dur.num/ws[i].dur.den
			if w := fmt.Sprintf("t=[%4d,%4d)millis-of-scale", start, end); !strings.Contains(printed[i], w) {
				t.Errorf("%s[%d] prints %q, want window %q", sc.Name, i, printed[i], w)
			}
		}
	}
}

func TestBoundedRetriesAbortSenderStream(t *testing.T) {
	// A link that stays dark longer than the retry budget must abort the
	// sender's stream with an error instead of retrying forever. Failover is
	// off (no probe machinery), so the simulation quiesces with the receiver
	// still waiting — exactly the degradation ladder's final rung.
	c := core.DefaultConfig()
	c.MaxRetries = 3
	cl, err := ask.NewCluster(ask.Options{Hosts: 2, Config: c, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orch := chaos.New(&cl.Deployment)
	// Let task setup finish, then cut the sender's link until well past the
	// retry budget (3 retries x 100µs RTO), healing late so control-channel
	// retransmissions can drain and the simulation quiesces.
	orch.LinkBlackhole(300*time.Microsecond, 20*time.Millisecond, 1)
	w := workload.Uniform(256, 30_000, 3)
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum}
	pt, err := cl.StartTask(spec, map[core.HostID]core.Stream{1: w.Stream()})
	if err != nil {
		t.Fatal(err)
	}
	cl.Sim.Run(0)
	if _, err := pt.Get(); err == nil {
		t.Fatal("task completed despite an aborted sender stream")
	}
	st := cl.Daemon(1).ChannelStats()
	var aborts int64
	for _, cs := range st {
		aborts += cs.Aborts
	}
	if aborts == 0 {
		t.Fatal("no channel recorded a transport abort")
	}
}

func TestBackToBackOutagesDoNotDoubleCount(t *testing.T) {
	// Regression: the soak harness (seed 9, shrunk to exactly these two
	// outages) caught a replay double-count. The second reboot lands before
	// the senders notice the first, so the first recovery generation's
	// RegisterFlowAt RPC lands on the NEWER incarnation (detection lag).
	// Data transmitted after that registration is absorbed into the live
	// region — which teardown will fetch — yet a naive replay of the full
	// retained history resends those packets as TypeReplay, and the receiver
	// (which never claimed them: the switch absorbed them) merges them a
	// second time. The fix tags every history record with the registration
	// epoch at first transmission and skips records whose incarnation is
	// still alive at replay time.
	scale := 778044 * time.Nanosecond
	frac := func(m int64) time.Duration { return scale * time.Duration(m) / 1000 }
	c := core.DefaultConfig()
	c.SwapThreshold = 0
	c.Failover = true
	cl, err := ask.NewCluster(ask.Options{Hosts: 3, Config: c, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	orch := chaos.New(&cl.Deployment)
	orch.SwitchOutage(ask.TheSwitch, frac(94), frac(153-94))
	orch.SwitchOutage(ask.TheSwitch, frac(342), frac(466-342))
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for i := 1; i <= 2; i++ {
		job.Send(core.HostID(i), workload.Uniform(512, 30_000, 9+int64(i)))
	}
	// An exact result: no replay double-counted across the two outages.
	runJob(t, cl, job)
	if got := cl.Switch.Stats().Reboots; got != 2 {
		t.Fatalf("expected 2 reboots, got %d", got)
	}
	for h := core.HostID(0); h <= 2; h++ {
		if fs := cl.Daemon(h).FailoverStats(); fs.Reattaches == 0 {
			t.Fatalf("host %d never completed recovery", h)
		}
	}
}

func TestBoundedRetriesAbortUnderTotalCorruption(t *testing.T) {
	// The corruption twin of the blackhole abort test: the sender's link
	// stays UP but damages every byte it carries (CorruptProb=1), so frames
	// keep arriving and keep being quarantined by the end-to-end checksum —
	// including the ACKs flowing back. At the transport layer sustained
	// corruption must be indistinguishable from loss: the bounded retry
	// budget exhausts and the stream aborts instead of spinning forever on
	// an undetectably-poisoned link.
	c := core.DefaultConfig()
	c.MaxRetries = 3
	cl, err := ask.NewCluster(ask.Options{Hosts: 2, Config: c, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orch := chaos.New(&cl.Deployment)
	orch.LinkDegrade(300*time.Microsecond, 20*time.Millisecond, 1, netsim.Fault{CorruptProb: 1})
	w := workload.Uniform(256, 30_000, 3)
	spec := core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum}
	pt, err := cl.StartTask(spec, map[core.HostID]core.Stream{1: w.Stream()})
	if err != nil {
		t.Fatal(err)
	}
	cl.Sim.Run(0)
	if _, err := pt.Get(); err == nil {
		t.Fatal("task completed despite a fully-corrupted sender link")
	}
	var aborts int64
	for _, cs := range cl.Daemon(1).ChannelStats() {
		aborts += cs.Aborts
	}
	if aborts == 0 {
		t.Fatal("no channel recorded a transport abort")
	}
	// The quarantine — not silent loss — must be what starved the window:
	// the switch saw and dropped the damaged uplink frames, and the sender
	// saw and dropped damaged frames (corrupted ACKs) coming back.
	if got := cl.Switch.Stats().CorruptDropped; got == 0 {
		t.Fatal("switch quarantined nothing; corruption path not exercised")
	}
	if got := cl.Daemon(1).Stats().CorruptDropped; got == 0 {
		t.Fatal("sender host quarantined nothing; return-path corruption not exercised")
	}
}
