// Package tenancy arbitrates a shared switch AA pool between tenants.
//
// Each tenant gets (a) a contiguous keyspace partition proportional to its
// weight — so tenants never contend for the same AA columns — and (b) a row
// quota proportional to its weight over the switch's AA row pool, enforced
// at admission. A task whose region would push its tenant past the quota is
// rejected with a typed *OverloadError; quotas cover the pool exactly, so a
// request within quota always fits. There is no cross-tenant borrowing: the
// only hot-key remedy is the per-task shadow copy (§3.4). The manager is
// pure bookkeeping — deterministic, no clocks, no goroutines — so
// simulations that consult it stay byte-identical across runs.
package tenancy

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/telemetry"
)

// TenantSpec declares one tenant sharing the fabric.
type TenantSpec struct {
	ID core.TenantID
	// Weight sets the tenant's share of both the keyspace and the AA row
	// pool relative to its peers. Must be positive.
	Weight int
}

// OverloadError is the typed admission rejection: the tenant's region
// request does not fit its quota. Callers surface it to the application as
// the OVERLOAD condition; it is a signal to shed load or retry later, not a
// fault.
type OverloadError struct {
	Tenant core.TenantID
	// Need is the row count the rejected request asked for.
	Need int
	// InUse and Quota describe the tenant's occupancy at rejection time.
	InUse, Quota int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("tenancy: OVERLOAD tenant %d: need %d rows, %d/%d in use",
		e.Tenant, e.Need, e.InUse, e.Quota)
}

type tenantState struct {
	spec  TenantSpec
	part  keyspace.Partition
	quota int
	inUse int
	// Admission outcomes, exposed per tenant through Instrument.
	admitted int64
	rejected int64
}

// Manager tracks per-tenant keyspace partitions and AA row occupancy for
// one switch pool. It is not safe for concurrent use; the deterministic
// simulation drives it from a single goroutine.
type Manager struct {
	tenants []tenantState // in declaration order (partition order)
	index   map[core.TenantID]int
}

// NewManager partitions the keyspace and row pool of cfg between tenants
// proportionally to weight. Tenant IDs must be unique and non-zero (zero is
// the legacy single-tenant ID and never appears on the fabric).
func NewManager(tenants []TenantSpec, cfg core.Config) (*Manager, error) {
	if len(tenants) == 0 {
		return nil, fmt.Errorf("tenancy: no tenants")
	}
	weights := make([]int, len(tenants))
	index := make(map[core.TenantID]int, len(tenants))
	for i, t := range tenants {
		if t.ID == 0 {
			return nil, fmt.Errorf("tenancy: tenant ID 0 is reserved for single-tenant mode")
		}
		if _, dup := index[t.ID]; dup {
			return nil, fmt.Errorf("tenancy: duplicate tenant ID %d", t.ID)
		}
		if t.Weight <= 0 {
			return nil, fmt.Errorf("tenancy: tenant %d has non-positive weight %d", t.ID, t.Weight)
		}
		index[t.ID] = i
		weights[i] = t.Weight
	}
	parts, err := keyspace.PartitionsFor(weights, cfg)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		tenants: make([]tenantState, len(tenants)),
		index:   index,
	}
	// Row quotas are cut like the keyspace bands: exact cover, no rounding
	// loss, deterministic.
	rows := keyspace.Cut(cfg.AARows, weights)
	for i, t := range tenants {
		m.tenants[i] = tenantState{spec: t, part: parts[i], quota: rows[i+1] - rows[i]}
	}
	return m, nil
}

// Partition returns the keyspace band owned by tenant t.
func (m *Manager) Partition(t core.TenantID) (keyspace.Partition, error) {
	i, ok := m.index[t]
	if !ok {
		return keyspace.Partition{}, fmt.Errorf("tenancy: unknown tenant %d", t)
	}
	return m.tenants[i].part, nil
}

// Quota returns tenant t's row quota (0 for unknown tenants).
func (m *Manager) Quota(t core.TenantID) int {
	if i, ok := m.index[t]; ok {
		return m.tenants[i].quota
	}
	return 0
}

// Admit charges rows to tenant t, or rejects an over-quota request with
// *OverloadError. Requests within quota always succeed (quotas cover the
// pool exactly, so in-quota rows are physically available).
func (m *Manager) Admit(t core.TenantID, rows int) error {
	i, ok := m.index[t]
	if !ok {
		return fmt.Errorf("tenancy: unknown tenant %d", t)
	}
	if rows <= 0 {
		return fmt.Errorf("tenancy: tenant %d requested %d rows", t, rows)
	}
	st := &m.tenants[i]
	if st.inUse+rows > st.quota {
		st.rejected++
		return &OverloadError{Tenant: t, Need: rows, InUse: st.inUse, Quota: st.quota}
	}
	st.inUse += rows
	st.admitted++
	return nil
}

// Instrument registers the manager's per-tenant allocation state on reg as
// callback gauges labeled `tenant` — polled at sample/export time only, so
// the admission path itself stays instrument-free. Safe to call once per
// registry.
func (m *Manager) Instrument(reg *telemetry.Registry) {
	for i := range m.tenants {
		st := &m.tenants[i]
		lbl := telemetry.L("tenant", strconv.FormatUint(uint64(st.spec.ID), 10))
		reg.GaugeFunc("tenancy.quota_rows", func() int64 { return int64(st.quota) }, lbl)
		reg.GaugeFunc("tenancy.rows_in_use", func() int64 { return int64(st.inUse) }, lbl)
		reg.GaugeFunc("tenancy.admissions", func() int64 { return st.admitted }, lbl)
		reg.GaugeFunc("tenancy.rejections", func() int64 { return st.rejected }, lbl)
	}
}

// Release returns rows charged by a successful Admit.
func (m *Manager) Release(t core.TenantID, rows int) {
	if i, ok := m.index[t]; ok {
		m.tenants[i].inUse -= rows
		if m.tenants[i].inUse < 0 {
			m.tenants[i].inUse = 0
		}
	}
}

// Usage is a point-in-time view of one tenant's allocation state. Borrowed
// is the occupancy beyond quota, which Admit never grants: it reads 0
// unless the accounting leaks.
type Usage struct {
	Tenant   core.TenantID
	Weight   int
	Quota    int
	InUse    int
	Borrowed int
}

// Snapshot reports every tenant's occupancy, ordered by tenant ID for
// stable output.
func (m *Manager) Snapshot() []Usage {
	out := make([]Usage, 0, len(m.tenants))
	for i := range m.tenants {
		st := &m.tenants[i]
		u := Usage{Tenant: st.spec.ID, Weight: st.spec.Weight, Quota: st.quota, InUse: st.inUse}
		if b := st.inUse - st.quota; b > 0 {
			u.Borrowed = b
		}
		out = append(out, u)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Tenant < out[b].Tenant })
	return out
}
