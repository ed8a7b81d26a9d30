package ask

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/workload"
)

func ftFailoverOptions(seed int64) FatTreeOptions {
	c := core.DefaultConfig()
	c.ShadowCopy = false // fat-tree failover precondition
	c.Failover = true
	c.MaxRetries = 0 // outage windows must be bridged, not aborted
	return FatTreeOptions{Spines: 2, Leaves: 3, HostsPerLeaf: 2, Config: c, Seed: seed}
}

// ftFailoverWorkload is a cross-leaf task (receiver on leaf 0, one sender
// each on leaves 1 and 2) whose residue exercises every tier.
func ftFailoverWorkload(opts FatTreeOptions) *Job {
	job := NewJob(core.TaskSpec{ID: 1, Receiver: opts.HostAt(0, 0), Op: core.OpSum})
	for l := 1; l < opts.Leaves; l++ {
		job.Send(opts.HostAt(l, 0), workload.Uniform(512, 20000, int64(30+l)))
	}
	return job
}

// ftGoldenScale measures the fault-free task duration for the failover
// workload, so outages can be scheduled mid-stream at any workload size.
// (Task setup costs two control RPCs, so the stream itself occupies roughly
// the middle of the elapsed interval; callers place outages at 40–60%.)
func ftGoldenScale(t *testing.T, opts FatTreeOptions) time.Duration {
	t.Helper()
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	return time.Duration(runJob(t, &fc.Deployment, ftFailoverWorkload(opts)).Elapsed)
}

// ftOutageRun replays the failover workload with one switch outage window
// [crash, reboot) against the switch at addr, and returns the outcome.
type ftOutageOutcome struct {
	res     *TaskResult
	epoch   uint32
	replays int64
}

func ftOutageRun(t *testing.T, opts FatTreeOptions, addr core.HostID, crash, reboot time.Duration) ftOutageOutcome {
	t.Helper()
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	job := ftFailoverWorkload(opts)
	spec := job.Spec
	fc.Sim.At(sim.Time(0).Add(crash), func() {
		if err := fc.CrashSwitch(addr); err != nil {
			t.Errorf("CrashSwitch(%#x): %v", uint16(addr), err)
		}
	})
	fc.Sim.At(sim.Time(0).Add(reboot), func() {
		if err := fc.RebootSwitch(addr); err != nil {
			t.Errorf("RebootSwitch(%#x): %v", uint16(addr), err)
		}
	})
	// Zero tuples lost, none double-counted: the result is exactly the
	// host-computed ground truth.
	results, err := fc.Run(job)
	if err != nil {
		t.Fatalf("task did not complete exactly across the outage of %#x: %v", uint16(addr), err)
	}
	res := results[0]
	out := ftOutageOutcome{res: res, epoch: fc.FabricEpoch()}
	hosts := append([]core.HostID{spec.Receiver}, spec.Senders...)
	for _, h := range hosts {
		d := fc.Daemon(h)
		out.replays += d.FailoverStats().ReplaysSent
		if d.Degraded() {
			t.Errorf("host %d still degraded after the fabric healed", h)
		}
		if he := d.Epoch(); he > fc.FabricEpoch() {
			t.Errorf("host %d epoch %d ahead of fabric epoch %d", h, he, fc.FabricEpoch())
		}
	}
	return out
}

// TestFatTreeSpineOutageConservation crashes the task's elected spine
// mid-stream and heals it: the fabric re-elects the alternate spine, flows
// re-register under the new incarnations, and the final result is exact —
// no tuple lost with the spine's SRAM, none double-counted by replay.
func TestFatTreeSpineOutageConservation(t *testing.T) {
	opts := ftFailoverOptions(41)
	scale := ftGoldenScale(t, opts)
	spec := ftFailoverWorkload(opts).Spec
	spine := netsim.SpineAddr(int(uint32(spec.ID)) % opts.Spines)
	out := ftOutageRun(t, opts, spine, scale*2/5, scale*3/5)
	// A crash and a reboot each advance the fabric epoch once.
	if out.epoch != 3 {
		t.Fatalf("fabric epoch %d after one outage, want 3", out.epoch)
	}
	if out.replays == 0 {
		t.Fatal("no replays sent: the outage did not exercise recovery")
	}
	if out.res.Degraded == 0 {
		t.Fatal("no degraded interval recorded: the outage was not observed")
	}
}

// TestFatTreeSpineOutageDeterministic replays the spine-outage scenario
// twice from scratch: identical builds must produce byte-identical outcomes
// (same virtual elapsed time, same result map, same replay count).
func TestFatTreeSpineOutageDeterministic(t *testing.T) {
	opts := ftFailoverOptions(43)
	scale := ftGoldenScale(t, opts)
	spec := ftFailoverWorkload(opts).Spec
	spine := netsim.SpineAddr(int(uint32(spec.ID)) % opts.Spines)
	a := ftOutageRun(t, opts, spine, scale*2/5, scale*3/5)
	b := ftOutageRun(t, opts, spine, scale*2/5, scale*3/5)
	if a.res.Elapsed != b.res.Elapsed {
		t.Fatalf("elapsed diverged across identical runs: %v vs %v", a.res.Elapsed, b.res.Elapsed)
	}
	if !a.res.Result.Equal(b.res.Result) {
		t.Fatalf("results diverged across identical runs: %s", a.res.Result.Diff(b.res.Result, 5))
	}
	if a.replays != b.replays {
		t.Fatalf("replay counts diverged across identical runs: %d vs %d", a.replays, b.replays)
	}
}

// TestFatTreeLeafOutageConservation crashes a sender's leaf mid-stream: its
// hosts are cut off entirely (host-delivery and uplink both dead), degrade
// via probe timeouts, and recover — replaying history, restoring the
// cross-leaf residue — at the heal-time epoch bump. Conservation is exact.
func TestFatTreeLeafOutageConservation(t *testing.T) {
	opts := ftFailoverOptions(47)
	scale := ftGoldenScale(t, opts)
	out := ftOutageRun(t, opts, netsim.LeafAddr(1), scale*2/5, scale*3/5)
	if out.epoch != 3 {
		t.Fatalf("fabric epoch %d after one outage, want 3", out.epoch)
	}
	if out.replays == 0 {
		t.Fatal("no replays sent: the leaf outage did not exercise recovery")
	}
}

// TestFatTreeSingleSpineLeafOnlyFallback runs a one-spine fabric and kills
// that spine mid-stream: with no live spine the task degrades to leaf-only
// absorption plus host merge until the heal, and the result stays exact.
func TestFatTreeSingleSpineLeafOnlyFallback(t *testing.T) {
	opts := ftFailoverOptions(53)
	opts.Spines = 1
	scale := ftGoldenScale(t, opts)
	out := ftOutageRun(t, opts, netsim.SpineAddr(0), scale*2/5, scale*3/5)
	if out.epoch != 3 {
		t.Fatalf("fabric epoch %d after one outage, want 3", out.epoch)
	}
}

// TestFatTreeCrashSwitchErrors pins the chaos-facing error contract: bad
// addresses are rejected, fault injection without failover is rejected, and
// the fat-tree refuses single-point region revocation.
func TestFatTreeCrashSwitchErrors(t *testing.T) {
	opts := ftFailoverOptions(59)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fc.CrashSwitch(core.HostID(0x1234)); err == nil {
		t.Fatal("CrashSwitch accepted an address naming no switch")
	}
	if err := fc.RevokeRegion(1, opts.HostAt(0, 0)); err == nil {
		t.Fatal("RevokeRegion should be unsupported on the fat-tree")
	}

	plain, err := NewFatTreeCluster(FatTreeOptions{Spines: 2, Leaves: 2, HostsPerLeaf: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.CrashSwitch(netsim.LeafAddr(0)); err == nil {
		t.Fatal("CrashSwitch accepted a fabric built without Config.Failover")
	}
}

// TestFatTreeAllocRegionDegraded pins the typed degradation signal: with
// every aggregation point of a task down, region allocation fails with a
// *DegradedError (matched via errors.As, never by concrete type).
func TestFatTreeAllocRegionDegraded(t *testing.T) {
	opts := ftFailoverOptions(61)
	fc, err := NewFatTreeCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	// The task's points are sender leaves 1,2 plus the elected spine; take
	// them all down (receiver leaf 0 stays up so this is an allocation
	// failure, not an unreachable controller).
	for l := 1; l < opts.Leaves; l++ {
		if err := fc.CrashSwitch(netsim.LeafAddr(l)); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < opts.Spines; s++ {
		if err := fc.CrashSwitch(netsim.SpineAddr(s)); err != nil {
			t.Fatal(err)
		}
	}
	spec := ftFailoverWorkload(opts).Spec
	_, err = fc.allocRegion(0, spec)
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("allocRegion with every point down returned %v, want a *DegradedError", err)
	}
	if deg.Op != "alloc-region" || deg.Attempts == 0 {
		t.Fatalf("degraded error lost its context: %+v", deg)
	}
}
