package ask

import (
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func mrOptions(seed int64) MultiRackOptions {
	return MultiRackOptions{Racks: 3, HostsPerRack: 3, Seed: seed}
}

func TestMultiRackRemoteTORsHoldNoTaskState(t *testing.T) {
	opts := mrOptions(2)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	job.Send(opts.HostAt(1, 0), workload.Uniform(512, 4000, 5))
	free := mc.Leaves[1].FreeRows()
	res := runJob(t, &mc.Deployment, job)
	// The remote sender's TOR never allocated a region for the task and
	// aggregated nothing; it only maintained its own rack's flow state.
	remote := mc.Leaves[1].TaskStatsOf(1)
	if remote.TuplesAggregated != 0 {
		t.Fatalf("remote TOR aggregated %d tuples", remote.TuplesAggregated)
	}
	if mc.Leaves[1].FreeRows() != free {
		t.Fatal("remote TOR holds a region for the task")
	}
	// All aggregation happened at the receiver host.
	if res.Recv.ResidueTuples != 4000 {
		t.Fatalf("residue = %d, want all 4000", res.Recv.ResidueTuples)
	}
}

// TestMultiRackLocalSendersGetINA pins the §7 split inside one task: only the
// rack-local sender's tuples are eligible at the receiver's TOR, which absorbs
// nearly all of them; the remote sender's take the host path.
func TestMultiRackLocalSendersGetINA(t *testing.T) {
	opts := mrOptions(3)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(1, 0)
	local, remote := opts.HostAt(1, 1), opts.HostAt(2, 2)
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	job.Send(local, workload.Uniform(512, 6000, 7))
	job.Send(remote, workload.Uniform(512, 8000, 8))
	res := runJob(t, &mc.Deployment, job)
	if res.Switch.TuplesIn != 6000 {
		t.Fatalf("receiver TOR saw %d tuples; want the local sender's 6000 only", res.Switch.TuplesIn)
	}
	if ratio := res.Switch.AggregatedTupleRatio(); ratio < 0.95 {
		t.Fatalf("rack-local INA absorbed only %.1f%%", 100*ratio)
	}
	if res.Recv.ResidueTuples < 8000 {
		t.Fatalf("host aggregated %d residue tuples; the remote sender alone brings 8000", res.Recv.ResidueTuples)
	}
}

// TestMultiRackTaskStatsAreTheReceiverTORs pins TaskSwitchStats to the task's
// aggregation points: the remote senders' TORs run the program on the task's
// packets (flow state, forwarding) and count them, but hold no region, so
// their counters must not leak into TaskResult.Switch — summing over every
// switch would.
func TestMultiRackTaskStatsAreTheReceiverTORs(t *testing.T) {
	opts := mrOptions(4)
	mc, err := NewMultiRackCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	receiver := opts.HostAt(0, 0)
	senders := []core.HostID{opts.HostAt(0, 1), opts.HostAt(1, 0), opts.HostAt(2, 0)}
	job := NewJob(core.TaskSpec{ID: 1, Receiver: receiver, Op: core.OpSum})
	for i, s := range senders {
		job.Send(s, workload.Uniform(512, 5000, int64(9+i)))
	}
	res := runJob(t, &mc.Deployment, job)
	recvTOR := *mc.Leaves[0].TaskStatsOf(1)
	if res.Switch != recvTOR {
		t.Fatalf("TaskResult.Switch is not the receiver TOR's stats:\n got: %+v\nwant: %+v", res.Switch, recvTOR)
	}
	if got := mc.TaskSwitchStats(1); got != recvTOR {
		t.Fatalf("TaskSwitchStats after teardown = %+v, want the receiver TOR's %+v", got, recvTOR)
	}
	for _, r := range []int{1, 2} {
		fwd := mc.Leaves[r].TaskStatsOf(1)
		if fwd.DataPackets == 0 || fwd.ForwardedPackets == 0 {
			t.Fatalf("sender TOR %d counted no forwarded packets of the task (%+v): the test no longer distinguishes the two sums", r, *fwd)
		}
	}
}
