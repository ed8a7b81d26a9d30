// Package workload generates deterministic key-value streams for the
// evaluation: uniform and Zipf-skewed synthetic streams with controllable
// arrival order (Fig. 9), and synthetic stand-ins for the paper's production
// corpora — yelp, 20-Newsgroups (NG), the Blog Authorship Corpus (BAC), and
// the Large Movie Review Dataset (LMDB) — parameterized by distinct-key
// count, Zipf exponent, and a rank-correlated key-length model (Table 1 and
// Fig. 8(b) depend only on those properties).
//
// All streams are seeded and replayable: Spec.Stream returns a fresh
// iterator each call, and Spec.Reference replays one to compute the exact
// expected aggregation.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// Order controls the arrival order of tuples in a stream (§5.4).
type Order uint8

const (
	// Shuffled draws keys independently per tuple (real-time streaming).
	Shuffled Order = iota
	// HotFirst emits all tuples of the most frequent key first ("Zipf"
	// in Fig. 9: hot keys in the front).
	HotFirst
	// ColdFirst reverses HotFirst ("Zipf (reverse)": cold keys first).
	ColdFirst
)

func (o Order) String() string {
	switch o {
	case Shuffled:
		return "shuffled"
	case HotFirst:
		return "hot-first"
	case ColdFirst:
		return "cold-first"
	default:
		return "invalid"
	}
}

// KeyLenModel maps a key's popularity rank to its byte length. Natural
// language keys follow the law of abbreviation: frequent words are short.
type KeyLenModel func(rank int) int

// ShortKeys returns keys of exactly n bytes regardless of rank (the
// microbenchmarks' fixed 4-byte keys).
func ShortKeys(n int) KeyLenModel { return func(int) int { return n } }

// NaturalLanguage mimics word-length statistics: ranks under 10 get 2–3
// characters, under 100 get 3–5, under 1000 get 4–7, the tail 5–13, with
// longTail shifting the whole distribution up (0 = English-like).
func NaturalLanguage(longTail int) KeyLenModel {
	return func(rank int) int {
		h := mix(uint64(rank) * 0x9e3779b97f4a7c15)
		var lo, span int
		switch {
		case rank < 10:
			lo, span = 2, 2
		case rank < 100:
			lo, span = 3, 3
		case rank < 1000:
			lo, span = 4, 4
		default:
			lo, span = 5, 9
		}
		return lo + longTail + int(h%uint64(span))
	}
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ (x >> 33)
}

// Word deterministically names the key of a given rank under a length
// model: an injective base-25 encoding of the rank (letters b–z), padded to
// the model's length with rank-derived letters (letter 'a' is excluded from
// the prefix so padding cannot create collisions).
func Word(rank int, lens KeyLenModel) string {
	// Base-25 digits of rank+1 using b..z.
	var digits []byte
	v := rank + 1
	for v > 0 {
		digits = append(digits, byte('b'+v%25))
		v /= 25
	}
	target := lens(rank)
	if target < len(digits)+1 {
		target = len(digits) + 1
	}
	out := make([]byte, 0, target)
	out = append(out, digits...)
	out = append(out, 'a') // separator: prefix is 'a'-free, so injective
	h := mix(uint64(rank)*0x2545f4914f6cdd1d + 1)
	for len(out) < target {
		out = append(out, byte('a'+h%26))
		h = mix(h)
	}
	return string(out)
}

// Spec describes one generated stream. Every tuple carries value 1
// (WordCount semantics).
type Spec struct {
	// Name labels the workload in reports.
	Name string
	// Distinct is the number of distinct keys.
	Distinct int
	// Tuples is the stream length.
	Tuples int64
	// Skew is the Zipf exponent s (> 1 for the stdlib sampler); 0 means
	// uniform key frequencies.
	Skew float64
	// Order is the arrival order.
	Order Order
	// KeyLens maps rank to key length (nil: 4-byte short keys).
	KeyLens KeyLenModel
	// Keys overrides the generated vocabulary: rank r uses Keys[r]. Used by
	// microbenchmarks that need slot-balanced key pools.
	Keys []string
	// Seed drives sampling.
	Seed int64
}

// lens returns the effective key-length model.
func (s Spec) lens() KeyLenModel {
	if s.KeyLens != nil {
		return s.KeyLens
	}
	return ShortKeys(4)
}

// counts returns the exact per-rank tuple counts for ordered emission:
// cumulative rounding keeps the total exactly Tuples.
func (s Spec) counts() []int64 {
	cdf := make([]float64, s.Distinct+1)
	for r := 1; r <= s.Distinct; r++ {
		p := 1.0
		if s.Skew > 0 {
			p = 1 / math.Pow(float64(r), s.Skew)
		}
		cdf[r] = cdf[r-1] + p
	}
	total := cdf[s.Distinct]
	counts := make([]int64, s.Distinct)
	var before int64
	for r := 1; r <= s.Distinct; r++ {
		upto := int64(math.Round(float64(s.Tuples) * cdf[r] / total))
		counts[r-1] = upto - before
		before = upto
	}
	return counts
}

// Stream returns a fresh deterministic iterator over the workload.
func (s Spec) Stream() core.Stream {
	if s.Distinct <= 0 || s.Tuples < 0 {
		panic(fmt.Sprintf("workload: invalid spec %+v", s))
	}
	if s.Keys != nil && len(s.Keys) < s.Distinct {
		panic(fmt.Sprintf("workload: %d keys for %d distinct", len(s.Keys), s.Distinct))
	}
	lens := s.lens()
	// Key-string cache: rank → word, built lazily (hot ranks dominate).
	// Rank-indexed slice, not a map: the lookup is on the per-tuple fast
	// path of every generated stream, and an array index beats a map probe.
	// Word never returns "" (it always emits at least the rank digits), so
	// the empty string doubles as the not-yet-built sentinel.
	cache := make([]string, s.Distinct)
	key := func(rank int) string {
		if s.Keys != nil {
			return s.Keys[rank]
		}
		if w := cache[rank]; w != "" {
			return w
		}
		w := Word(rank, lens)
		cache[rank] = w
		return w
	}

	var i int64
	switch s.Order {
	case Shuffled:
		rng := rand.New(rand.NewSource(s.Seed))
		var zipf *rand.Zipf
		if s.Skew > 0 {
			sk := s.Skew
			if sk <= 1 {
				sk = 1.0001 // stdlib sampler requires s > 1
			}
			zipf = rand.NewZipf(rng, sk, 1, uint64(s.Distinct-1))
		}
		return func() (core.KV, bool) {
			if i >= s.Tuples {
				return core.KV{}, false
			}
			var rank int
			if zipf != nil {
				rank = int(zipf.Uint64())
			} else {
				rank = rng.Intn(s.Distinct)
			}
			kv := core.KV{Key: key(rank), Val: 1}
			i++
			return kv, true
		}
	case HotFirst, ColdFirst:
		counts := s.counts()
		idx := 0
		if s.Order == ColdFirst {
			idx = len(counts) - 1
		}
		step := 1
		if s.Order == ColdFirst {
			step = -1
		}
		var left int64
		if len(counts) > 0 {
			left = counts[idx]
		}
		return func() (core.KV, bool) {
			for left == 0 {
				idx += step
				if idx < 0 || idx >= len(counts) {
					return core.KV{}, false
				}
				left = counts[idx]
			}
			if i >= s.Tuples {
				return core.KV{}, false
			}
			left--
			kv := core.KV{Key: key(idx), Val: 1}
			i++
			return kv, true
		}
	default:
		panic("workload: unknown order")
	}
}

// Reference replays a fresh stream and returns the exact aggregation.
func (s Spec) Reference(op core.Op) core.Result {
	return core.ReferenceStreams(op, s.Stream())
}

// Uniform returns a uniform workload over distinct 4-byte-ish keys.
func Uniform(distinct int, tuples int64, seed int64) Spec {
	return Spec{Name: "uniform", Distinct: distinct, Tuples: tuples, Seed: seed}
}

// Zipf returns a Zipf(s) workload in the given order.
func Zipf(distinct int, tuples int64, skew float64, order Order, seed int64) Spec {
	name := "zipf"
	switch order {
	case HotFirst:
		name = "zipf-hot-first"
	case ColdFirst:
		name = "zipf-reverse"
	}
	return Spec{Name: name, Distinct: distinct, Tuples: tuples, Skew: skew, Order: order, Seed: seed}
}

// Dataset returns the synthetic stand-in for one of the paper's production
// corpora, scaled to the given tuple count. The parameters (distinct
// vocabulary, Zipf exponent, key-length shift) are set so the slot-fill and
// switch-absorption behaviour lands in the regime Table 1 and Fig. 8(b)
// report; they are substitutes for the real corpora, not copies.
func Dataset(name string, tuples int64, seed int64) Spec {
	switch name {
	case "yelp":
		// Reviews: large vocabulary, strong skew — the worst packer
		// (Fig. 8(b): average 16.91 valid tuples per packet).
		return Spec{Name: name, Distinct: 200_000, Tuples: tuples, Skew: 1.12,
			Order: Shuffled, KeyLens: NaturalLanguage(0), Seed: seed}
	case "NG":
		// 20 Newsgroups: smaller vocabulary, moderate skew.
		return Spec{Name: name, Distinct: 60_000, Tuples: tuples, Skew: 1.04,
			Order: Shuffled, KeyLens: NaturalLanguage(0), Seed: seed}
	case "BAC":
		// Blog corpus: colloquial text, lighter tail.
		return Spec{Name: name, Distinct: 120_000, Tuples: tuples, Skew: 1.02,
			Order: Shuffled, KeyLens: NaturalLanguage(0), Seed: seed}
	case "LMDB":
		// Movie reviews: mid-size vocabulary.
		return Spec{Name: name, Distinct: 90_000, Tuples: tuples, Skew: 1.06,
			Order: Shuffled, KeyLens: NaturalLanguage(0), Seed: seed}
	default:
		panic(fmt.Sprintf("workload: unknown dataset %q", name))
	}
}

// DatasetNames lists the corpora stand-ins in the paper's order.
func DatasetNames() []string { return []string{"yelp", "NG", "BAC", "LMDB"} }
