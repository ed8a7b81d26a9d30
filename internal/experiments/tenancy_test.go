package experiments

import "testing"

func TestTenancyFairnessShape(t *testing.T) {
	tb := pinned(t, "tenancy", 0)
	// Acceptance: per-tenant goodput within 5% of weight share whenever all
	// tenants are backlogged (last column is the max relative deviation).
	for r := range tb.Rows {
		if dev := cell(t, tb, r, 5); dev > 5 {
			t.Fatalf("row %d (%s): goodput deviates %.2f%% from weight share, above 5%%:\n%s",
				r, tb.Rows[r][0], dev, tb.String())
		}
	}
}

func TestTenancyUtilizationShape(t *testing.T) {
	tb := pinned(t, "tenancy", 1)
	// Acceptance: with disjoint hot sets, the shared pool performs strictly
	// more aggregation per second than the single-tenant baseline (row 0),
	// without pinning more rows.
	base := cell(t, tb, 0, 2)
	baseRows := cell(t, tb, 0, 1)
	for r := 1; r < len(tb.Rows); r++ {
		if agg := cell(t, tb, r, 2); agg <= base {
			t.Fatalf("row %d: aggregate absorbed %.2f Mt/s not above single-tenant baseline %.2f:\n%s",
				r, agg, base, tb.String())
		}
		if rows := cell(t, tb, r, 1); rows > baseRows {
			t.Fatalf("row %d: pinned rows %.0f exceed the baseline %.0f:\n%s",
				r, rows, baseRows, tb.String())
		}
	}
}
