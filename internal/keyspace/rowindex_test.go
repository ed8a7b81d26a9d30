package keyspace_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/switchd"
)

// rowOf is a placement's unified aggregator row index as the switch computes
// it from all of the key's packed kParts, over a row space wide enough that
// distinct hashes stay distinct.
func rowOf(p keyspace.Placement) int { return switchd.RowIndex(p.KParts, math.MaxInt) }

func placer(t *testing.T) *keyspace.Layout {
	t.Helper()
	l, err := keyspace.NewLayout(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMediumSharedPrefixDistinctRows(t *testing.T) {
	l := placer(t)
	// "yours" and "yourself" share the "your" first segment but must use
	// different unified rows (§3.2.3: "yourself" reserves a different
	// aggregator than "yours").
	a, b := l.Place("yours"), l.Place("yourself")
	if rowOf(a) == rowOf(b) {
		t.Fatal("distinct medium keys share a row")
	}
	if a.KParts[0] != b.KParts[0] {
		t.Fatal(`"yours" and "yourself" should share the "your" segment packing`)
	}
}

func TestNaiveSegmentAmbiguityAvoided(t *testing.T) {
	l := placer(t)
	// The naïve design's failure case: X1X2 and Y1Y2 reserved, then X1Y2
	// must NOT be recognized. With one row hashed from all kParts, X1Y2's
	// row differs from both.
	x, y, xy := l.Place("aaaabbbb"), l.Place("ccccdddd"), l.Place("aaaadddd")
	if rowOf(xy) == rowOf(x) || rowOf(xy) == rowOf(y) {
		t.Fatal("composite key collides with component keys' rows")
	}
}
