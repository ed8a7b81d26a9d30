package tenancy

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/telemetry"
)

func mgr(t *testing.T, specs ...TenantSpec) *Manager {
	t.Helper()
	m, err := NewManager(specs, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestQuotasCoverPoolProportionally(t *testing.T) {
	cfg := core.DefaultConfig()
	m := mgr(t, TenantSpec{ID: 1, Weight: 1}, TenantSpec{ID: 2, Weight: 3})
	total := m.Quota(1) + m.Quota(2)
	if total != cfg.AARows {
		t.Fatalf("quotas sum to %d, want pool %d", total, cfg.AARows)
	}
	if m.Quota(2) != 3*m.Quota(1) {
		t.Fatalf("quota ratio %d:%d, want 1:3", m.Quota(1), m.Quota(2))
	}
}

func TestPartitionsMatchPartitionsFor(t *testing.T) {
	cfg := core.DefaultConfig()
	m := mgr(t, TenantSpec{ID: 7, Weight: 2}, TenantSpec{ID: 3, Weight: 1})
	want, err := keyspace.PartitionsFor([]int{2, 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []core.TenantID{7, 3} {
		got, err := m.Partition(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("tenant %d partition %v, want %v", id, got, want[i])
		}
	}
	if _, err := m.Partition(9); err == nil {
		t.Fatal("unknown tenant must error")
	}
}

func TestNewManagerValidates(t *testing.T) {
	cfg := core.DefaultConfig()
	cases := []struct {
		name  string
		specs []TenantSpec
	}{
		{"empty", nil},
		{"zero id", []TenantSpec{{ID: 0, Weight: 1}}},
		{"dup id", []TenantSpec{{ID: 1, Weight: 1}, {ID: 1, Weight: 2}}},
		{"bad weight", []TenantSpec{{ID: 1, Weight: 0}}},
	}
	for _, tc := range cases {
		if _, err := NewManager(tc.specs, cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestAdmitWithinQuota(t *testing.T) {
	m := mgr(t, TenantSpec{ID: 1, Weight: 1}, TenantSpec{ID: 2, Weight: 1})
	q := m.Quota(1)
	if err := m.Admit(1, q); err != nil {
		t.Fatalf("full-quota admit failed: %v", err)
	}
	if m.tenants[m.index[1]].inUse != q {
		t.Fatalf("in use %d, want %d", m.tenants[m.index[1]].inUse, q)
	}
	m.Release(1, q)
	if m.tenants[m.index[1]].inUse != 0 {
		t.Fatalf("after release in use %d, want 0", m.tenants[m.index[1]].inUse)
	}
}

func TestAdmitOverQuotaRejectsTyped(t *testing.T) {
	m := mgr(t, TenantSpec{ID: 1, Weight: 1}, TenantSpec{ID: 2, Weight: 1})
	q := m.Quota(1)
	err := m.Admit(1, q+1)
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	if ov.Tenant != 1 || ov.Need != q+1 || ov.Quota != q || ov.InUse != 0 {
		t.Fatalf("bad overload fields: %+v", ov)
	}
	if m.tenants[m.index[1]].inUse != 0 {
		t.Fatal("rejected admit must not charge rows")
	}
}

func TestSnapshotOrderedByID(t *testing.T) {
	m := mgr(t, TenantSpec{ID: 5, Weight: 1}, TenantSpec{ID: 2, Weight: 2})
	if err := m.Admit(5, 3); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Tenant != 2 || snap[1].Tenant != 5 {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if snap[1].InUse != 3 || snap[1].Borrowed != 0 {
		t.Fatalf("snapshot usage wrong: %+v", snap[1])
	}
}

func TestInstrumentPerTenantGauges(t *testing.T) {
	m := mgr(t, TenantSpec{ID: 1, Weight: 1}, TenantSpec{ID: 2, Weight: 3})
	reg := telemetry.NewRegistry()
	m.Instrument(reg)
	if err := m.Admit(2, 5); err != nil {
		t.Fatal(err)
	}
	var ov *OverloadError
	if err := m.Admit(1, 2*m.Quota(1)+1); !errors.As(err, &ov) {
		t.Fatalf("want *OverloadError, got %v", err)
	}
	g := reg.GaugeValues()
	for k, want := range map[string]int64{
		`tenancy.quota_rows{tenant="1"}`:  int64(m.Quota(1)),
		`tenancy.quota_rows{tenant="2"}`:  int64(m.Quota(2)),
		`tenancy.rows_in_use{tenant="2"}`: 5,
		`tenancy.admissions{tenant="2"}`:  1,
		`tenancy.admissions{tenant="1"}`:  0,
		`tenancy.rejections{tenant="1"}`:  1,
		`tenancy.rejections{tenant="2"}`:  0,
	} {
		got, ok := g[k]
		if !ok {
			t.Fatalf("gauge %s not registered (have %v)", k, g)
		}
		if got != want {
			t.Errorf("%s = %d, want %d", k, got, want)
		}
	}
}
