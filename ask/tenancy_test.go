package ask

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// Multi-tenancy (§7): tasks from different tenants encode the tenant in the
// task ID's high bits; the daemon isolates tasks on the host and the switch
// controller isolates their memory regions.

// tenantTask builds a task ID with the tenant in the high byte.
func tenantTask(tenant, task uint32) core.TaskID {
	return core.TaskID(tenant<<24 | task)
}

func TestMultiTenantIsolation(t *testing.T) {
	cl, err := NewCluster(Options{Hosts: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	// Two tenants run tasks with the same low task number and overlapping
	// key spaces at the same time.
	mk := func(seed int64) []core.KV {
		kvs := make([]core.KV, 0, 3000)
		for i := 0; i < 3000; i++ {
			kvs = append(kvs, core.KV{Key: fmt.Sprintf("k%d", (seed*7+int64(i))%200), Val: seed})
		}
		return kvs
	}
	dataA, dataB := mk(1), mk(100)
	ptA, err := cl.StartTask(core.TaskSpec{
		ID: tenantTask(1, 42), Receiver: 0, Senders: []core.HostID{1, 2},
	}, map[core.HostID]core.Stream{1: core.SliceStream(dataA), 2: core.SliceStream(dataA)})
	if err != nil {
		t.Fatal(err)
	}
	ptB, err := cl.StartTask(core.TaskSpec{
		ID: tenantTask(2, 42), Receiver: 1, Senders: []core.HostID{0, 2},
	}, map[core.HostID]core.Stream{0: core.SliceStream(dataB), 2: core.SliceStream(dataB)})
	if err != nil {
		t.Fatal(err)
	}
	cl.Sim.Run(0)
	resA, err := ptA.Get()
	if err != nil {
		t.Fatal(err)
	}
	resB, err := ptB.Get()
	if err != nil {
		t.Fatal(err)
	}
	wantA := core.Reference(core.OpSum, dataA, dataA)
	wantB := core.Reference(core.OpSum, dataB, dataB)
	if !resA.Result.Equal(wantA) {
		t.Fatalf("tenant 1 polluted: %s", resA.Result.Diff(wantA, 5))
	}
	if !resB.Result.Equal(wantB) {
		t.Fatalf("tenant 2 polluted: %s", resB.Result.Diff(wantB, 5))
	}
}

func TestTenantRegionExhaustionIsContained(t *testing.T) {
	// A tenant hogging regions fails cleanly; other tenants keep working.
	cl, err := NewCluster(Options{Hosts: 2, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cl.Config()
	data := kvs{{Key: "x", Val: 1}}
	hog := NewJob(core.TaskSpec{ID: tenantTask(1, 1), Receiver: 0, Rows: cfg.AARows}) // everything
	hog.Send(1, data)
	runJob(t, &cl.Deployment, hog)
	// The hog completed (regions are freed at teardown), so the next tenant
	// allocates again.
	next := NewJob(core.TaskSpec{ID: tenantTask(2, 1), Receiver: 0, Rows: cfg.AARows})
	next.Send(1, data)
	runJob(t, &cl.Deployment, next)
}

func TestConcurrentOverAllocationFails(t *testing.T) {
	// Two concurrent tasks both demanding the whole AA depth: the second
	// submission must surface a clean allocation error, not corrupt state.
	cl, err := NewCluster(Options{Hosts: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cl.Config()
	data := []core.KV{{Key: "x", Val: 1}}
	pt1, err := cl.StartTask(core.TaskSpec{
		ID: 1, Receiver: 0, Senders: []core.HostID{1}, Rows: cfg.AARows,
	}, map[core.HostID]core.Stream{1: core.SliceStream(data)})
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := cl.StartTask(core.TaskSpec{
		ID: 2, Receiver: 0, Senders: []core.HostID{1}, Rows: cfg.AARows,
	}, map[core.HostID]core.Stream{1: core.SliceStream(data)})
	if err != nil {
		t.Fatal(err) // StartTask itself is fine; the alloc error surfaces at Get
	}
	cl.Sim.Run(0)
	if _, err := pt1.Get(); err != nil {
		t.Fatalf("first task failed: %v", err)
	}
	if _, err := pt2.Get(); err == nil {
		t.Fatal("second whole-switch allocation should fail")
	}
}
