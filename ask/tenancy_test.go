package ask

import (
	"errors"
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
	jobA := NewJob(core.TaskSpec{ID: tenantTask(1, 42), Receiver: 0})
	jobA.Send(1, kvs(dataA))
	jobA.Send(2, kvs(dataA))
	jobB := NewJob(core.TaskSpec{ID: tenantTask(2, 42), Receiver: 1})
	jobB.Send(0, kvs(dataB))
	jobB.Send(2, kvs(dataB))
	if err := cl.Start(jobA, jobB); err != nil {
		t.Fatal(err)
	}
	cl.Sim.Run(0)
	// A polluted result is a *core.MismatchError against the tenant's own
	// reference.
	if _, err := jobA.Result(); err != nil {
		t.Fatalf("tenant 1: %v", err)
	}
	if _, err := jobB.Result(); err != nil {
		t.Fatalf("tenant 2: %v", err)
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
	data := kvs{{Key: "x", Val: 1}}
	job1 := NewJob(core.TaskSpec{ID: 1, Receiver: 0, Rows: cfg.AARows})
	job1.Send(1, data)
	job2 := NewJob(core.TaskSpec{ID: 2, Receiver: 0, Rows: cfg.AARows})
	job2.Send(1, data)
	if err := cl.Start(job1, job2); err != nil {
		t.Fatal(err) // submission itself is fine; the alloc error surfaces at Result
	}
	cl.Sim.Run(0)
	if _, err := job1.Result(); err != nil {
		t.Fatalf("first task failed: %v", err)
	}
	// The allocation itself must fail: a polluted result that only fails
	// verification is a *core.MismatchError and does not count.
	var m *core.MismatchError
	if _, err := job2.Result(); err == nil || errors.As(err, &m) {
		t.Fatalf("second whole-switch allocation should fail: %v", err)
	}
}
