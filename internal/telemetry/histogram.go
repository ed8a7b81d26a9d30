package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Histogram is a log-linear (HDR-style) histogram of non-negative int64
// observations: each power-of-two octave is split into 2^subBits linear
// sub-buckets, giving a bounded relative error of 1/2^subBits ≈ 12.5%
// with a fixed 488-bucket footprint covering 0..MaxInt64. Recording is a
// single atomic add; a nil Histogram is a no-op.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

const (
	subBits    = 3
	subBuckets = 1 << subBits // 8 linear sub-buckets per octave
	// Values 0..subBuckets*2-1 are exact (buckets 0..15); beyond that,
	// value v lands in octave exp = floor(log2 v) - subBits, sub-bucket
	// v>>exp. MaxInt64 (exp 59) tops out at bucket 59*8+15 = 487.
	numBuckets = 488
)

func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket. Negative values clamp to 0.
func bucketIndex(v int64) int {
	if v < subBuckets*2 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 - subBits
	return exp*subBuckets + int(v>>uint(exp))
}

// bucketUpperEdge returns the largest value contained in bucket i.
func bucketUpperEdge(i int) int64 {
	if i < subBuckets*2 {
		return int64(i)
	}
	exp := uint(i/subBuckets - 1)
	sub := int64(i%subBuckets + subBuckets)
	hi := (sub+1)<<exp - 1
	if hi < 0 { // overflow at the top octave
		return math.MaxInt64
	}
	return hi
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistBucket is one populated histogram bucket: Count observations with
// values <= UpperEdge (and greater than the previous bucket's edge).
type HistBucket struct {
	UpperEdge int64 `json:"le"`
	Count     int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram: only populated
// buckets, in increasing edge order.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot copies the populated buckets. Concurrent Records may tear
// between count and buckets; on the single simulation goroutine it is
// exact.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistBucket{UpperEdge: bucketUpperEdge(i), Count: n})
		}
	}
	return s
}

// Quantile returns an upper bound for the q-quantile (0 <= q <= 1) of the
// recorded values: the upper edge of the bucket containing that rank.
// Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return bucketUpperEdge(i)
		}
	}
	return bucketUpperEdge(numBuckets - 1)
}
