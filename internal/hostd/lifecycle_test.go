package hostd_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cpumodel"
	"repro/internal/hostd"
	"repro/internal/keyspace"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/switchd"
	"repro/internal/wire"
	"repro/internal/workload"
)

// reallocFails grants a task's first region and refuses every re-allocation
// after it, as a rebooted switch with no room left would.
type reallocFails struct {
	ctrlAdapter
	calls int
}

func (c *reallocFails) AllocRegion(spec core.TaskSpec) (hostd.AllocInfo, error) {
	if c.calls++; c.calls > 1 {
		return hostd.AllocInfo{}, errors.New("no rows left")
	}
	return c.ctrlAdapter.AllocRegion(spec)
}

// phaseMoves lists task's task_phase trace events as "from>to" moves.
func phaseMoves(r *rig, task core.TaskID) string {
	var moves []string
	for _, e := range r.tr.Events() {
		if e.Kind == "task_phase" && e.Task == int64(task) {
			moves = append(moves, hostd.PhaseName(e.A)+">"+hostd.PhaseName(e.B))
		}
	}
	return strings.Join(moves, " ")
}

// TestTaskLifecycle pins the phase moves a receiving task makes, read from
// the trace ring, on every path through its lifecycle: each run streams a
// paced trace from one sender, schedules its faults and must end exact.
func TestTaskLifecycle(t *testing.T) {
	const (
		revokeAt = sim.Time(time.Millisecond)
		ms       = time.Millisecond
		finish   = "streaming>finishing finishing>committed committed>done"
		drained  = "held>revoked revoked>draining draining>drained "
	)
	reboot := func(at sim.Time) func(r *rig) {
		return func(r *rig) {
			r.s.At(at, r.sw.Crash)
			r.s.At(at.Add(100*time.Microsecond), r.sw.Reboot)
		}
	}
	// revoke revokes the task's region, and tells its receiver one control
	// RPC later; crash also takes the switch down at that instant, so the
	// drain's read meets the reboot.
	revoke := func(crash bool) func(r *rig) {
		return func(r *rig) {
			r.s.At(revokeAt, func() {
				if err := r.sw.RevokeRegion(1); err != nil {
					t.Error(err)
				}
			})
			at := revokeAt.Add(cpumodel.ControlRPCLatency)
			r.s.At(at, func() { r.daemons[0].OnRegionRevoked(1) })
			if crash {
				reboot(at)(r)
			}
		}
	}
	for _, tc := range []struct {
		name      string
		swap      int
		failover  bool
		realloc   bool // a re-allocation after a reboot fails
		faults    func(r *rig)
		want      string
		wantSwaps bool
	}{
		{name: "plain", want: finish},
		{name: "swapping", swap: 64, want: finish, wantSwaps: true},
		{name: "revoke, drain, drained", failover: true, faults: revoke(false), want: drained + finish},
		{name: "drain crossed by a reboot", failover: true, faults: revoke(true), want: "held>revoked revoked>host-only " + finish},
		{name: "drained, then a reboot", failover: true, faults: func(r *rig) {
			revoke(false)(r)
			reboot(sim.Time(2 * ms))(r)
		}, want: drained + finish},
		{name: "reboot with re-attach", failover: true, faults: reboot(sim.Time(ms)), want: finish},
		{name: "reboot, re-attach fails", failover: true, realloc: true, faults: reboot(sim.Time(ms)), want: "held>host-only " + finish},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Failover, cfg.SwapThreshold = tc.failover, tc.swap
			mk := func(sw *switchd.Switch) hostd.Controller { return ctrlAdapter{sw} }
			if tc.realloc {
				mk = func(sw *switchd.Switch) hostd.Controller { return &reallocFails{ctrlAdapter: ctrlAdapter{sw}} }
			}
			r := newRigCores(t, 2, netsim.DefaultLinkConfig(), cfg, mk, 8, 1<<16)
			defer r.s.Close()
			in := drain(workload.Uniform(2048, 40000, 3).Stream())
			i := 0
			stream := func() (core.TimedKV, bool) {
				if i >= len(in) {
					return core.TimedKV{}, false
				}
				i++
				return core.TimedKV{KV: in[i-1], At: time.Duration(i) * 100 * time.Nanosecond}, true
			}
			var result core.Result
			var stats hostd.RecvTaskStats
			r.s.Spawn("driver", func(p *sim.Proc) {
				h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
				if err != nil {
					t.Error(err)
					return
				}
				r.daemons[1].SubmitSendTimed(1, stream)
				result, stats = h.Wait(p), h.Stats()
				r.s.Stop() // health probes never let a failover run drain
			})
			if tc.faults != nil {
				tc.faults(r)
			}
			r.s.Run(sim.Time(time.Second))
			if result == nil {
				t.Fatal("task did not complete")
			}
			if err := result.Verify(core.Reference(core.OpSum, in)); err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if tc.wantSwaps {
				if stats.Swaps == 0 {
					t.Fatal("no swap round ran")
				}
				want = strings.Repeat("held>swapping swapping>held ", int(stats.Swaps)) + want
			}
			if got := phaseMoves(r, 1); got != want {
				t.Errorf("phase moves\n got: %s\nwant: %s", got, want)
			}
			if n := r.tr.Dropped(); n != 0 {
				t.Errorf("trace ring dropped %d events", n)
			}
		})
	}
}

// parkedSwapLoops counts the goroutines, parked processes included, that
// stand in a swap process.
func parkedSwapLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "(*recvTask).swapLoop")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSwapProcessEndsWithItsTask: a task's swap process returns when the task
// is done, so once Wait returns nothing of it is left parked. The count is
// taken before and after (the test is not parallel, so no other test runs
// meanwhile; a process parked by an earlier test stays counted on both sides).
func TestSwapProcessEndsWithItsTask(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SwapThreshold = 16
	before := parkedSwapLoops()
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	defer r.s.Close()
	w := workload.Uniform(2048, 20000, 5)
	var stats hostd.RecvTaskStats
	r.s.Spawn("driver", func(p *sim.Proc) {
		h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
		if err != nil {
			t.Error(err)
			return
		}
		r.daemons[1].SubmitSend(1, w.Stream())
		h.Wait(p)
		stats = h.Stats()
	})
	r.s.Run(0)
	if stats.Swaps == 0 {
		t.Fatal("no swap round ran")
	}
	if after := parkedSwapLoops(); after != before {
		t.Fatalf("%d swap processes parked after the task, %d before", after, before)
	}
}

// TestNoSwapOnceEveryFinIsIn: a data packet served after the last FIN — the
// task is finishing — starts no swap round, however many packets arrived
// since the last one.
func TestNoSwapOnceEveryFinIsIn(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SwapThreshold = 1
	r := newRigConfig(t, 2, netsim.DefaultLinkConfig(), cfg)
	defer r.s.Close()
	layout, err := keyspace.NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var result core.Result
	r.s.Spawn("driver", func(p *sim.Proc) {
		h, err := r.daemons[0].Submit(p, core.TaskSpec{ID: 1, Receiver: 0, Senders: []core.HostID{1}, Op: core.OpSum})
		if err != nil {
			t.Error(err)
			return
		}
		result = h.Wait(p)
	})
	r.s.Run(sim.Time(time.Millisecond))
	flow := core.FlowKey{Host: 1, Channel: 0}
	deliver := func(pkt *wire.Packet) {
		f := netsim.PoolOf(r.s).NewFrame()
		f.Src, f.Dst, f.WireBytes = 1, 0, pkt.WireBytes(cfg.KPartBytes)
		f.Pkt, f.Owned = pkt, true
		r.daemons[0].HandleFrame(f)
	}
	r.s.At(r.s.Now().Add(time.Microsecond), func() {
		deliver(&wire.Packet{Type: wire.TypeFin, Task: 1, Flow: flow, Seq: 0, OrigSeq: 1})
		data := &wire.Packet{Type: wire.TypeData, Task: 1, Flow: flow, Seq: 1, Slots: make([]wire.Slot, cfg.NumAAs)}
		pl := layout.Place("late")
		data.Slots[pl.FirstSlot] = wire.Slot{KPart: pl.KParts[0], Val: 1}
		data.Bitmap = data.Bitmap.Set(pl.FirstSlot)
		deliver(data) // served after the FIN, behind it in the same queue
	})
	r.s.Run(0)
	if result == nil {
		t.Fatal("task did not complete")
	}
	if n := r.daemons[0].Stats().SwapsTriggered; n != 0 {
		t.Fatalf("%d swap rounds started after the last FIN, want 0", n)
	}
	if result["late"] != 1 {
		t.Fatalf("the packet served while finishing merged %d, want 1", result["late"])
	}
}
