package keyspace

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// Partitioned Locate edge cases (multi-tenant placement): the whole-keyspace
// tests above never exercise bands narrower than the full slot range.

func TestLocateInZeroPartitionMatchesLocate(t *testing.T) {
	l := defaultLayout(t)
	for _, key := range []string{"a", "the", "word", "abcde", "yourself", "toolongforswitch", ""} {
		c1, f1, s1 := l.Locate(key)
		c2, f2, s2 := l.LocateIn(Partition{}, key)
		if c1 != c2 || f1 != f2 || s1 != s2 {
			t.Errorf("LocateIn(zero, %q) = (%v,%d,%d), Locate = (%v,%d,%d)",
				key, c2, f2, s2, c1, f1, s1)
		}
	}
}

func TestLocateInEdgeCases(t *testing.T) {
	l := defaultLayout(t) // 16 short slots, 8 medium groups, 2 segs
	short := l.ShortSlots()
	cases := []struct {
		name string
		part Partition
		key  string
		// want: class plus the allowed slot band [lo, hi) (ignored for Long)
		wantClass Class
		wantLo    int
		wantHi    int
		wantSegs  int
	}{
		{
			// A partition with no short slots: short keys take the bypass.
			name: "empty short band bypasses short keys",
			part: Partition{ShortLo: -1, GroupLo: 2, GroupWidth: 3},
			key:  "cat", wantClass: Long,
		},
		{
			// A partition with no medium groups: medium keys take the bypass.
			name: "empty group band bypasses medium keys",
			part: Partition{ShortLo: 4, ShortWidth: 5, GroupLo: -1},
			key:  "abcdef", wantClass: Long,
		},
		{
			// Fully empty partition (marker form): everything bypasses.
			name: "fully empty partition",
			part: Partition{ShortLo: -1, GroupLo: -1},
			key:  "cat", wantClass: Long,
		},
		{
			// A one-slot band: every short key lands on exactly that slot.
			name: "1-slot short partition pins the slot",
			part: Partition{ShortLo: 7, ShortWidth: 1, GroupLo: 0, GroupWidth: 8},
			key:  "cat", wantClass: Short, wantLo: 7, wantHi: 8, wantSegs: 1,
		},
		{
			// A one-group band: every medium key lands on that group's slots.
			name: "1-group medium partition pins the group",
			part: Partition{ShortLo: 0, ShortWidth: 16, GroupLo: 5, GroupWidth: 1},
			key:  "abcdef", wantClass: Medium,
			wantLo: short + 5*2, wantHi: short + 5*2 + 1, wantSegs: 2,
		},
		{
			// Band at the top edge of the short range.
			name: "short band at upper boundary",
			part: Partition{ShortLo: 14, ShortWidth: 2, GroupLo: 0, GroupWidth: 8},
			key:  "dog", wantClass: Short, wantLo: 14, wantHi: 16, wantSegs: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			class, first, segs := l.LocateIn(c.part, c.key)
			if class != c.wantClass {
				t.Fatalf("class = %v, want %v", class, c.wantClass)
			}
			if class == Long {
				return
			}
			if first < c.wantLo || first >= c.wantHi {
				t.Errorf("firstSlot = %d, want in [%d,%d)", first, c.wantLo, c.wantHi)
			}
			if segs != c.wantSegs {
				t.Errorf("segs = %d, want %d", segs, c.wantSegs)
			}
		})
	}
}

// TestPartitionBoundaryStraddle checks that adjacent tenants' bands never
// overlap inside one packet: a packet's slot array spans the whole keyspace,
// and at a partition boundary a key must fall strictly inside its own
// tenant's band — never on the neighbour's first slot.
func TestPartitionBoundaryStraddle(t *testing.T) {
	l := defaultLayout(t)
	parts, err := PartitionsFor([]int{1, 1, 2}, l.Config())
	if err != nil {
		t.Fatal(err)
	}
	// Bands must tile the space exactly: contiguous, disjoint, covering.
	wantShort, wantGroup := 0, 0
	for i, p := range parts {
		if p.ShortWidth > 0 && p.ShortLo != wantShort {
			t.Errorf("tenant %d short band starts at %d, want %d", i, p.ShortLo, wantShort)
		}
		if p.GroupWidth > 0 && p.GroupLo != wantGroup {
			t.Errorf("tenant %d group band starts at %d, want %d", i, p.GroupLo, wantGroup)
		}
		wantShort += p.ShortWidth
		wantGroup += p.GroupWidth
	}
	if wantShort != l.ShortSlots() || wantGroup != l.cfg.MediumGroups {
		t.Fatalf("bands cover %d short / %d groups, want %d / %d",
			wantShort, wantGroup, l.ShortSlots(), l.cfg.MediumGroups)
	}
	// Hash a spread of short and medium keys into every tenant's band and
	// verify each stays inside its own tenant's slot range.
	for ti, p := range parts {
		for i := 0; i < 500; i++ {
			for _, key := range []string{fmt.Sprintf("k%d", i), fmt.Sprintf("mk%04d", i)} {
				class, first, segs := l.LocateIn(p, key)
				switch class {
				case Short:
					if first < p.ShortLo || first >= p.ShortLo+p.ShortWidth {
						t.Fatalf("tenant %d short key %q slot %d outside band %v", ti, key, first, p)
					}
				case Medium:
					g := (first - l.ShortSlots()) / l.Config().MediumSegs
					if g < p.GroupLo || g >= p.GroupLo+p.GroupWidth {
						t.Fatalf("tenant %d medium key %q group %d outside band %v", ti, key, g, p)
					}
					if first+segs > l.ShortSlots()+(g+1)*l.Config().MediumSegs {
						t.Fatalf("tenant %d medium key %q straddles group boundary", ti, key)
					}
				}
			}
		}
	}
}

// TestCut pins the one weighted cut: n+1 boundaries from 0 to total, bands in
// weight order, and an empty band where a share rounds down to nothing.
func TestCut(t *testing.T) {
	for _, c := range []struct {
		total   int
		weights []int
		want    []int
	}{
		{total: 16, weights: []int{1}, want: []int{0, 16}},
		{total: 16, weights: []int{1, 1}, want: []int{0, 8, 16}},
		{total: 16, weights: []int{3, 1}, want: []int{0, 12, 16}},
		{total: 10, weights: []int{1, 1, 1}, want: []int{0, 3, 6, 10}},
		{total: 4, weights: []int{2, 1}, want: []int{0, 2, 4}},
		// Empty bands: the small share first, in the middle, last.
		{total: 2, weights: []int{1, 9}, want: []int{0, 0, 2}},
		{total: 2, weights: []int{5, 1, 5}, want: []int{0, 0, 1, 2}},
		{total: 2, weights: []int{9, 1}, want: []int{0, 1, 2}},
		{total: 3, weights: []int{1, 1, 1, 1, 1}, want: []int{0, 0, 1, 1, 2, 3}},
		{total: 0, weights: []int{1, 2}, want: []int{0, 0, 0}},
		{total: 5, weights: nil, want: []int{0}},
	} {
		got := Cut(c.total, c.weights)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Cut(%d, %v) = %v, want %v", c.total, c.weights, got, c.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Errorf("Cut(%d, %v) = %v: band %d is negative", c.total, c.weights, got, i-1)
			}
		}
		if len(c.weights) > 0 && got[len(got)-1] != c.total {
			t.Errorf("Cut(%d, %v) = %v does not cover the total", c.total, c.weights, got)
		}
	}
}

func TestPartitionsForEmptyBandIsNotZero(t *testing.T) {
	// 17 tenants over 16 short slots / 8 groups: some tenant's bands are
	// empty; the empty partition must not alias the whole-keyspace zero
	// value (which would silently grant it the full switch).
	weights := make([]int, 17)
	for i := range weights {
		weights[i] = 1
	}
	parts, err := PartitionsFor(weights, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sawEmpty := false
	for i, p := range parts {
		if p.IsZero() {
			t.Fatalf("tenant %d got the zero (full-keyspace) partition", i)
		}
		if p.ShortWidth == 0 && p.GroupWidth == 0 {
			sawEmpty = true
		}
	}
	if !sawEmpty {
		t.Fatal("expected at least one empty band with 17 tenants over 16 slots")
	}
}

func TestPartitionsForRejectsBadWeights(t *testing.T) {
	if _, err := PartitionsFor(nil, core.DefaultConfig()); err == nil {
		t.Fatal("no tenants should error")
	}
	if _, err := PartitionsFor([]int{2, 0}, core.DefaultConfig()); err == nil {
		t.Fatal("zero weight should error")
	}
}
