package hostd_test

// Daemon-level integration tests wiring hostd directly to switchd over
// netsim (the ask package provides the same wiring behind its facade; these
// tests poke daemon behaviours the facade hides).

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

type ctrlAdapter struct{ sw *switchd.Switch }

func (c ctrlAdapter) RegisterFlowAt(fk core.FlowKey, start uint32) (uint32, error) {
	if _, err := c.sw.RegisterFlowAt(fk, start); err != nil {
		return 0, err
	}
	return c.sw.Epoch(), nil
}
func (c ctrlAdapter) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	_, err := c.sw.AllocRegion(spec.ID, spec.Receiver, spec.Op, spec.Rows)
	return hostd.AllocInfo{}, err
}
func (c ctrlAdapter) FreeRegion(task core.TaskID) error { return c.sw.FreeRegion(task) }

type rig struct {
	s       *sim.Simulation
	sw      *switchd.Switch
	daemons map[core.HostID]*hostd.Daemon
	cpus    map[core.HostID]*cpumodel.Host
	tr      *telemetry.Tracer // the daemons' trace ring; nil unless asked for
}

func newRig(t *testing.T, hosts int, link netsim.LinkConfig) *rig {
	t.Helper()
	return newRigConfig(t, hosts, link, core.DefaultConfig())
}

func newRigConfig(t *testing.T, hosts int, link netsim.LinkConfig, cfg core.Config) *rig {
	t.Helper()
	return newRigCtrl(t, hosts, link, cfg, func(sw *switchd.Switch) hostd.Controller { return ctrlAdapter{sw} })
}

// newRigCtrl builds the rig with every daemon talking to the controller mk
// returns for the rack's switch.
func newRigCtrl(t *testing.T, hosts int, link netsim.LinkConfig, cfg core.Config, mk func(*switchd.Switch) hostd.Controller) *rig {
	t.Helper()
	return newRigCores(t, hosts, link, cfg, mk, 8, 0)
}

// newRigCores builds the rig with cores CPU cores per host; with ring > 0 its
// daemons trace into one ring of that many events.
func newRigCores(t *testing.T, hosts int, link netsim.LinkConfig, cfg core.Config, mk func(*switchd.Switch) hostd.Controller, cores, ring int) *rig {
	t.Helper()
	s := sim.New(1)
	n := netsim.New(s, link)
	sw, err := switchd.New(s, n, cfg, switchd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{s: s, sw: sw, daemons: make(map[core.HostID]*hostd.Daemon), cpus: make(map[core.HostID]*cpumodel.Host)}
	if ring > 0 {
		r.tr = telemetry.NewTracer(s.Now, ring)
	}
	for h := 0; h < hosts; h++ {
		id := core.HostID(h)
		r.cpus[id] = cpumodel.NewHost(s, cores)
		d, err := hostd.New(s, n, r.cpus[id], cfg, id, mk(sw), telemetry.Sink{Tr: r.tr})
		if err != nil {
			t.Fatal(err)
		}
		r.daemons[id] = d
	}
	return r
}

func TestSendSubmittedBeforeNotify(t *testing.T) {
	// The sender application can hand its stream to the daemon before the
	// receiver's task notification arrives (§3.1: either order).
	r := newRig(t, 2, netsim.DefaultLinkConfig())
	w := workload.Uniform(256, 3000, 1)
	// SubmitSend first, at t=0, from outside any task context.
	r.daemons[1].SubmitSend(42, w.Stream())
	var result, again core.Result
	r.s.Spawn("driver", func(p *sim.Proc) {
		h, err := r.daemons[0].Submit(p, core.TaskSpec{
			ID: 42, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum,
		})
		if err != nil {
			t.Error(err)
			return
		}
		result, again = h.Wait(p), h.Wait(p)
	})
	r.s.Run(0)
	if result == nil {
		t.Fatal("task did not complete")
	}
	if reflect.ValueOf(result).UnsafePointer() != reflect.ValueOf(again).UnsafePointer() {
		t.Fatal("a second Wait returned another map")
	}
	if want := w.Reference(core.OpSum); !result.Equal(want) {
		t.Fatalf("result wrong: %s", result.Diff(want, 5))
	}
}

// TestReleaseDropsRetainedHistoryOnTenantChannels: with failover on, a sender
// retains its task's packets on the data channel that sent them until the
// receiver releases the task. On a daemon with tenant channel ranges the
// sending channel is picked inside the tenant's range, and the release must
// find the same one: the task ID below hashes to channel 2 of 4 globally but
// to channel 0 of tenant 1's range [0, 2).
func TestReleaseDropsRetainedHistoryOnTenantChannels(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Failover, cfg.SwapThreshold = true, 0
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	for _, d := range r.daemons {
		if err := d.SetTenantChannels(1, 0, 2); err != nil {
			t.Fatal(err)
		}
	}
	id := core.MakeTaskID(1, 2)
	if global, ranged := int(id)%cfg.DataChannels, int(id)%2; global == ranged {
		t.Fatalf("task %d hashes to channel %d either way; the test needs the two to differ", id, global)
	}
	w := workload.Uniform(256, 3000, 1)
	var result core.Result
	r.s.Spawn("driver", func(p *sim.Proc) {
		h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: id, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
		if err != nil {
			t.Error(err)
			return
		}
		r.daemons[1].SubmitSend(id, w.Stream())
		result = h.Wait(p)
	})
	r.s.Run(0)
	if err := result.Verify(w.Reference(core.OpSum)); err != nil {
		t.Fatal(err)
	}
	for ch, n := range r.daemons[1].Retained() {
		if n != 0 {
			t.Errorf("sender channel %d still retains %d released task(s): %v", ch, n, r.daemons[1].Retained())
		}
	}
}

func TestSubmitErrors(t *testing.T) {
	r := newRig(t, 2, netsim.DefaultLinkConfig())
	r.s.Spawn("driver", func(p *sim.Proc) {
		// Wrong receiver host.
		if _, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 1, Senders: []core.HostID{1}}); err == nil {
			t.Error("foreign receiver accepted")
		}
		// Duplicate task ID.
		if _, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 2, Receiver: 0, Senders: []core.HostID{1}}); err != nil {
			t.Error(err)
		}
		if _, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 2, Receiver: 0, Senders: []core.HostID{1}}); err == nil {
			t.Error("duplicate task accepted")
		}
		// Region impossible to allocate.
		if _, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 3, Receiver: 0, Senders: []core.HostID{1}, Rows: 1 << 30}); err == nil {
			t.Error("impossible region accepted")
		}
	})
	r.s.Run(0)
}

// flakyCtrl fails the first `fail` region allocations with err and counts
// every attempt.
type flakyCtrl struct {
	ctrlAdapter
	fail, calls int
	err         error
}

func (c *flakyCtrl) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	c.calls++
	if c.calls <= c.fail {
		return hostd.AllocInfo{}, c.err
	}
	return c.ctrlAdapter.AllocRegion(spec)
}

// TestSubmitAllocationTakesTheReattachPath: the first region allocation of a
// task and the re-attach of recovery are one path. With failover on, a
// *core.DegradedError (the fabric is partially down, not full) is retried
// with backoff and past the budget the task runs host-only — either way it
// completes exactly; any other error, and any error with failover off, fails
// the Submit on the first attempt.
func TestSubmitAllocationTakesTheReattachPath(t *testing.T) {
	degraded := &core.DegradedError{Op: "alloc-region", Attempts: 1}
	for _, tc := range []struct {
		name      string
		failover  bool
		fail      int
		err       error
		wantCalls int
		wantErr   bool
		hostOnly  bool
	}{
		{"degraded twice then up", true, 2, degraded, 3, false, false},
		{"degraded past the budget", true, 100, degraded, 4, false, true},
		{"wrapped degraded", true, 1, fmt.Errorf("ctrl: %w", degraded), 2, false, false},
		{"permanent error", true, 1, errors.New("quota exceeded"), 1, true, false},
		{"degraded without failover", false, 1, degraded, 1, true, false},
	} {
		cfg := core.DefaultConfig()
		cfg.Failover, cfg.SwapThreshold = tc.failover, 0
		var ctrl *flakyCtrl
		r := newRigCtrl(t, 2, netsim.DefaultLinkConfig(), cfg, func(sw *switchd.Switch) hostd.Controller {
			if ctrl == nil {
				ctrl = &flakyCtrl{ctrlAdapter: ctrlAdapter{sw}, fail: tc.fail, err: tc.err}
			}
			return ctrl
		})
		w := workload.Uniform(256, 3000, 1)
		var result core.Result
		var stats hostd.RecvTaskStats
		var submitErr error
		r.s.Spawn("driver", func(p *sim.Proc) {
			h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 7, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
			if submitErr = err; err != nil {
				return
			}
			r.daemons[1].SubmitSend(7, w.Stream())
			result, stats = h.Wait(p), h.Stats()
		})
		r.s.Run(0)
		if ctrl.calls != tc.wantCalls {
			t.Errorf("%s: %d allocation attempts, want %d", tc.name, ctrl.calls, tc.wantCalls)
		}
		if tc.wantErr {
			if !errors.Is(submitErr, tc.err) {
				t.Errorf("%s: Submit error %v, want %v", tc.name, submitErr, tc.err)
			}
			continue
		}
		if submitErr != nil {
			t.Errorf("%s: Submit failed: %v", tc.name, submitErr)
			continue
		}
		if err := result.Verify(w.Reference(core.OpSum)); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if hostOnly := stats.SwitchEntries == 0; hostOnly != tc.hostOnly {
			t.Errorf("%s: %d switch entries merged, host-only want %v", tc.name, stats.SwitchEntries, tc.hostOnly)
		}
	}
}

func TestChannelStatsAndSlotFill(t *testing.T) {
	r := newRig(t, 2, netsim.DefaultLinkConfig())
	w := workload.Uniform(1024, 20000, 2)
	want := w.Reference(core.OpSum)
	var result core.Result
	r.s.Spawn("driver", func(p *sim.Proc) {
		h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}})
		if err != nil {
			t.Error(err)
			return
		}
		r.daemons[1].SubmitSend(1, w.Stream())
		result = h.Wait(p)
	})
	r.s.Run(0)
	if !result.Equal(want) {
		t.Fatalf("result wrong: %s", result.Diff(want, 5))
	}
	ds := r.daemons[1].Stats()
	if ds.TuplesSent != 20000 {
		t.Fatalf("TuplesSent = %d", ds.TuplesSent)
	}
	var fills int64
	for _, n := range ds.SlotFill {
		fills += n
	}
	// Long-key packets are excluded from the histogram; uniform short
	// keys produce none, so every sent packet is histogrammed.
	if fills != ds.PacketsSent {
		t.Fatalf("SlotFill total %d != data packets %d", fills, ds.PacketsSent)
	}
	// One channel carried the task (hash(1) % 4); its counters show it.
	chs := r.daemons[1].ChannelStats()
	active := 0
	for _, cs := range chs {
		if cs.Sent > 0 {
			active++
			if cs.Acked != cs.Sent {
				t.Fatalf("channel not fully acked: %+v", cs)
			}
		}
	}
	if active != 1 {
		t.Fatalf("%d channels active, want 1 (single task)", active)
	}
}

func TestCtrlNotifySurvivesLoss(t *testing.T) {
	// Task notifications cross the network on the control channel; under
	// heavy loss they are retransmitted until acknowledged.
	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.3
	r := newRig(t, 3, link)
	var results [2]core.Result
	specs := [2]workload.Spec{workload.Uniform(128, 1500, 3), workload.Uniform(128, 1500, 4)}
	r.s.Spawn("driver", func(p *sim.Proc) {
		h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1, 2}})
		if err != nil {
			t.Error(err)
			return
		}
		r.daemons[1].SubmitSend(1, specs[0].Stream())
		r.daemons[2].SubmitSend(1, specs[1].Stream())
		results[0] = h.Wait(p)
	})
	r.s.Run(0)
	want := specs[0].Reference(core.OpSum)
	want.Merge(specs[1].Reference(core.OpSum), core.OpSum)
	if !results[0].Equal(want) {
		t.Fatalf("lossy-notify task wrong: %s", results[0].Diff(want, 5))
	}
}

func TestManySequentialTasksOneChannelFIFO(t *testing.T) {
	// Tasks hashing to the same channel are served in FIFO order; all
	// complete exactly.
	r := newRig(t, 2, netsim.DefaultLinkConfig())
	const n = 5
	var handles [n]*hostd.RecvHandle
	var results [n]core.Result
	var specs [n]workload.Spec
	r.s.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// IDs 4,8,12,...: all hash to channel 0.
			id := core.TaskID(4 * (i + 1))
			specs[i] = workload.Uniform(64, 800, int64(i))
			h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: id, Receiver: 0, Senders: []core.HostID{1}})
			if err != nil {
				t.Error(err)
				return
			}
			handles[i] = h
			r.daemons[1].SubmitSend(id, specs[i].Stream())
		}
		for i := 0; i < n; i++ {
			results[i] = handles[i].Wait(p)
		}
	})
	r.s.Run(0)
	for i := 0; i < n; i++ {
		if err := results[i].Verify(specs[i].Reference(core.OpSum)); err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	// Only channel 0 (and no other) carried data.
	chs := r.daemons[1].ChannelStats()
	for ci, cs := range chs {
		if ci == 0 && cs.Sent == 0 {
			t.Fatal("channel 0 idle")
		}
		if ci != 0 && cs.Sent != 0 {
			t.Fatalf("channel %d carried %d packets; FIFO hashing broken", ci, cs.Sent)
		}
	}
}
