package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// TestHistogramExactRange: values 0..15 land in their own bucket with an
// exact edge (the two linear octaves before log-linear bucketing starts).
func TestHistogramExactRange(t *testing.T) {
	for v := int64(0); v < 16; v++ {
		if idx := bucketIndex(v); idx != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, idx, v)
		}
		if e := bucketUpperEdge(int(v)); e != v {
			t.Fatalf("bucketUpperEdge(%d) = %d, want %d", v, e, v)
		}
	}
}

// TestHistogramBucketBoundaries: every value lies within (prevEdge, edge],
// and the log-linear relative error stays within one sub-bucket (1/8).
func TestHistogramBucketBoundaries(t *testing.T) {
	check := func(v int64) {
		t.Helper()
		idx := bucketIndex(v)
		edge := bucketUpperEdge(idx)
		if v > edge {
			t.Fatalf("value %d above its bucket edge %d (bucket %d)", v, edge, idx)
		}
		if idx > 0 {
			if prev := bucketUpperEdge(idx - 1); v <= prev {
				t.Fatalf("value %d not above previous edge %d (bucket %d)", v, prev, idx)
			}
		}
		if v >= 16 {
			if relErr := float64(edge-v) / float64(v); relErr > 1.0/8 {
				t.Fatalf("value %d: edge %d rel err %.3f > 12.5%%", v, edge, relErr)
			}
		}
	}
	// Octave boundaries and their neighbours.
	for exp := uint(4); exp < 63; exp++ {
		p := int64(1) << exp
		for _, v := range []int64{p - 1, p, p + 1} {
			if v > 0 {
				check(v)
			}
		}
	}
	check(math.MaxInt64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		check(rng.Int63())
	}
}

func TestHistogramZeroNegativeAndMax(t *testing.T) {
	h := newHistogram()
	h.Record(0)
	h.Record(-5) // clamps to bucket 0
	h.Record(math.MaxInt64)
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("populated buckets = %d, want 2 (zero + top)", len(s.Buckets))
	}
	if s.Buckets[0].UpperEdge != 0 || s.Buckets[0].Count != 2 {
		t.Fatalf("zero bucket = %+v", s.Buckets[0])
	}
	if s.Buckets[1].UpperEdge != math.MaxInt64 {
		t.Fatalf("top edge = %d, want MaxInt64", s.Buckets[1].UpperEdge)
	}
	if bucketIndex(math.MaxInt64) != numBuckets-1 {
		t.Fatalf("MaxInt64 bucket = %d, want %d", bucketIndex(math.MaxInt64), numBuckets-1)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := newHistogram()
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	if s := h.Snapshot(); float64(s.Sum)/float64(s.Count) != 50.5 {
		t.Fatalf("mean = %d/%d, want 50.5", s.Sum, s.Count)
	}
	// p50 of 1..100 is rank 50; its bucket edge must cover >= 50 and stay
	// within the 12.5% relative-error bound.
	p50 := h.Quantile(0.5)
	if p50 < 50 || float64(p50) > 50*1.125+1 {
		t.Fatalf("p50 = %d, want within [50, ~56]", p50)
	}
	if p100 := h.Quantile(1); p100 < 100 || float64(p100) > 100*1.125+1 {
		t.Fatalf("p100 = %d", p100)
	}
	if p0 := h.Quantile(0); p0 < 1 || p0 > 1 {
		t.Fatalf("p0 = %d, want 1 (rank clamps to 1)", p0)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 || nilH.Snapshot().Count != 0 {
		t.Fatal("nil histogram must read zero")
	}
}
