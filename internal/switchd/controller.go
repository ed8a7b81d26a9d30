package switchd

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/keyspace"
)

// The switch controller: the control-plane interface host daemons use for
// region allocation (§3.1 steps ③ and ⑫) and persistent flow registration.
// Hosts call these methods directly; the control-plane RPC latency is
// charged by the caller (cpumodel.ControlRPCLatency).

// RegisterFlow assigns (or returns) the reliability-state index of a
// persistent data-channel flow. Daemons register every channel at boot.
func (sw *Switch) RegisterFlow(fk core.FlowKey) (int, error) {
	if idx, ok := sw.flows[fk]; ok {
		return idx, nil
	}
	if sw.nextFlow >= sw.opts.MaxFlows {
		return 0, fmt.Errorf("switchd: flow table full (%d flows)", sw.opts.MaxFlows)
	}
	idx := sw.nextFlow
	sw.nextFlow++
	sw.flows[fk] = idx
	return idx, nil
}

// AllocRegion reserves totalRows aggregator rows on every AA for a task.
// totalRows == 0 requests the largest free contiguous block. With the
// shadow-copy mechanism enabled the region is split into two copies.
func (sw *Switch) AllocRegion(task core.TaskID, receiver core.HostID, op core.Op, totalRows int) (*Region, error) {
	return sw.AllocRegionPartition(task, receiver, op, totalRows, keyspace.Partition{})
}

// AllocRegionPartition is AllocRegion restricted to a tenant's keyspace
// band: the region aggregates only slots inside part (multi-tenant
// fabrics). The zero partition is exactly AllocRegion.
func (sw *Switch) AllocRegionPartition(task core.TaskID, receiver core.HostID, op core.Op, totalRows int, part keyspace.Partition) (*Region, error) {
	if r, dup := sw.regions[task]; dup {
		// Idempotent re-allocation: a receiver recovering from a switch
		// reboot can race its own pre-reboot RPC (the original allocation
		// lands on the new incarnation just before the retry). If the live
		// region already belongs to this task with the same shape, it IS the
		// requested region — hand it back instead of failing the recovery.
		if r.Receiver == receiver && r.Op == op && r.Partition == part && !r.Revoked {
			return r, nil
		}
		return nil, fmt.Errorf("switchd: task %d already has a region", task)
	}
	if len(sw.regionFree) == 0 {
		return nil, fmt.Errorf("switchd: region table full (%d regions)", sw.opts.MaxRegions)
	}
	// Shadow copies are on exactly when receivers swap (core.Config).
	shadow := sw.cfg.SwapThreshold > 0
	if totalRows == 0 {
		// Default sizing: a quarter of the AA depth, so several tenants fit
		// without explicit coordination, bounded by what is actually free.
		totalRows = sw.cfg.AARows / 4
		if free := sw.rows.largestFree(); totalRows > free {
			totalRows = free
		}
		if shadow {
			totalRows &^= 1
		}
	}
	if totalRows <= 0 {
		return nil, fmt.Errorf("switchd: no aggregator rows available")
	}
	copies := 1
	copyRows := totalRows
	if shadow {
		if totalRows%2 != 0 {
			return nil, fmt.Errorf("switchd: totalRows %d must be even with shadow copies", totalRows)
		}
		copies = 2
		copyRows = totalRows / 2
	}
	lo, err := sw.rows.alloc(totalRows)
	if err != nil {
		return nil, err
	}
	idx := sw.regionFree[len(sw.regionFree)-1]
	sw.regionFree = sw.regionFree[:len(sw.regionFree)-1]
	r := &Region{
		Task:      task,
		Receiver:  receiver,
		Op:        op,
		Lo:        lo,
		TotalRows: totalRows,
		CopyRows:  copyRows,
		Copies:    copies,
		Partition: part,
		idx:       idx,
	}
	// Reset the region's data-plane state from the control plane.
	sw.raSwapSeq.ControlWrite(idx, 0)
	sw.raClearSeq.ControlWrite(idx, 0)
	sw.raCopyInd.ControlWrite(idx, 0)
	sw.clearAARange(lo, lo+totalRows)
	sw.regions[task] = r
	// A fresh allocation restarts the task's stats view; the underlying
	// registry counters stay monotonic (metrics.go).
	sw.resetTaskStats(task)
	return r, nil
}

// FreeRegion releases a task's region for reuse (§3.1 step ⑫). The region's
// aggregators are cleared so the next tenant starts blank.
func (sw *Switch) FreeRegion(task core.TaskID) error {
	r, ok := sw.regions[task]
	if !ok {
		return fmt.Errorf("switchd: task %d has no region", task)
	}
	sw.clearAARange(r.Lo, r.Lo+r.TotalRows)
	sw.rows.release(r.Lo, r.TotalRows)
	sw.regionFree = append(sw.regionFree, r.idx)
	delete(sw.regions, task)
	return nil
}

// RegionOf returns a task's live region, or nil.
func (sw *Switch) RegionOf(task core.TaskID) *Region { return sw.regions[task] }

// rowAllocator hands out contiguous row ranges first-fit and coalesces on
// free.
type rowAllocator struct {
	free []span // sorted by lo, non-overlapping, non-adjacent
}

type span struct{ lo, hi int }

func newRowAllocator(rows int) *rowAllocator {
	return &rowAllocator{free: []span{{0, rows}}}
}

func (a *rowAllocator) alloc(n int) (int, error) {
	for i, s := range a.free {
		if s.hi-s.lo >= n {
			lo := s.lo
			if s.hi-s.lo == n {
				a.free = append(a.free[:i], a.free[i+1:]...)
			} else {
				a.free[i].lo += n
			}
			return lo, nil
		}
	}
	return 0, fmt.Errorf("switchd: no contiguous block of %d rows (largest free %d)", n, a.largestFree())
}

func (a *rowAllocator) release(lo, n int) {
	s := span{lo, lo + n}
	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].lo >= s.lo })
	a.free = append(a.free, span{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = s
	// Coalesce with neighbours.
	merged := a.free[:0]
	for _, f := range a.free {
		if n := len(merged); n > 0 && merged[n-1].hi >= f.lo {
			if f.hi > merged[n-1].hi {
				merged[n-1].hi = f.hi
			}
			continue
		}
		merged = append(merged, f)
	}
	a.free = merged
}

func (a *rowAllocator) largestFree() int {
	best := 0
	for _, s := range a.free {
		if s.hi-s.lo > best {
			best = s.hi - s.lo
		}
	}
	return best
}

func (a *rowAllocator) totalFree() int {
	t := 0
	for _, s := range a.free {
		t += s.hi - s.lo
	}
	return t
}
