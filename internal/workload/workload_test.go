package workload

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestWordInjective(t *testing.T) {
	lens := NaturalLanguage(0)
	seen := make(map[string]int)
	for r := 0; r < 200000; r++ {
		w := Word(r, lens)
		if prev, dup := seen[w]; dup {
			t.Fatalf("ranks %d and %d both map to %q", prev, r, w)
		}
		seen[w] = r
	}
}

func TestWordNULFree(t *testing.T) {
	f := func(rank uint16) bool {
		w := Word(int(rank), NaturalLanguage(0))
		return !strings.ContainsRune(w, 0) && len(w) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordRespectsLengthModel(t *testing.T) {
	lens := ShortKeys(4)
	for r := 0; r < 1000; r++ {
		w := Word(r, lens)
		// Short ranks encode in few digits; length must be >= model only
		// when digits force it.
		if len(w) < 4 && r < 25*25*25 {
			t.Fatalf("Word(%d) = %q shorter than model", r, w)
		}
	}
	// Frequent natural-language words are short.
	nl := NaturalLanguage(0)
	for r := 0; r < 10; r++ {
		if w := Word(r, nl); len(w) > 3 {
			t.Fatalf("hot word %q (rank %d) too long", w, r)
		}
	}
}

func TestStreamExactLength(t *testing.T) {
	for _, order := range []Order{Shuffled, HotFirst, ColdFirst} {
		spec := Zipf(100, 5000, 1.2, order, 1)
		n := int64(0)
		s := spec.Stream()
		for {
			_, ok := s()
			if !ok {
				break
			}
			n++
		}
		if n != 5000 {
			t.Fatalf("order %v: stream length %d, want 5000", order, n)
		}
	}
}

func TestStreamDeterministic(t *testing.T) {
	spec := Dataset("yelp", 2000, 7)
	a := core.Collect(spec.Stream())
	b := core.Collect(spec.Stream())
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHotFirstOrdering(t *testing.T) {
	spec := Zipf(50, 2000, 1.3, HotFirst, 1)
	kvs := core.Collect(spec.Stream())
	// The first key must be rank 0 (the hottest), and all its occurrences
	// must be contiguous at the front.
	first := kvs[0].Key
	if first != Word(0, spec.lens()) {
		t.Fatalf("first key %q, want rank-0 %q", first, Word(0, spec.lens()))
	}
	i := 0
	for i < len(kvs) && kvs[i].Key == first {
		i++
	}
	for _, kv := range kvs[i:] {
		if kv.Key == first {
			t.Fatal("hot key reappears after its block")
		}
	}
}

func TestColdFirstIsReverse(t *testing.T) {
	hot := core.Collect(Zipf(50, 2000, 1.3, HotFirst, 1).Stream())
	cold := core.Collect(Zipf(50, 2000, 1.3, ColdFirst, 1).Stream())
	if len(hot) != len(cold) {
		t.Fatal("length mismatch")
	}
	// Same multiset of tuples: identical references.
	rh := core.Reference(core.OpSum, hot)
	rc := core.Reference(core.OpSum, cold)
	if !rh.Equal(rc) {
		t.Fatalf("orders disagree on content: %s", rh.Diff(rc, 5))
	}
	// And the cold stream starts with the rarest key.
	if cold[0].Key == hot[0].Key {
		t.Fatal("cold-first starts with the hottest key")
	}
}

func TestZipfSkewShape(t *testing.T) {
	spec := Zipf(1000, 100000, 1.3, Shuffled, 3)
	ref := spec.Reference(core.OpSum)
	hot := ref[Word(0, spec.lens())]
	// The hottest key should dominate: at s=1.3 over 1000 keys, rank 0
	// holds a large share.
	if hot < 20000 {
		t.Fatalf("hottest key count %d; skew not applied", hot)
	}
	// Uniform by contrast is flat.
	uref := Uniform(1000, 100000, 3).Reference(core.OpSum)
	umax := int64(0)
	for _, v := range uref {
		if v > umax {
			umax = v
		}
	}
	if umax > 300 {
		t.Fatalf("uniform max count %d; not uniform", umax)
	}
}

func TestCountsSumExactly(t *testing.T) {
	spec := Zipf(777, 123457, 1.1, HotFirst, 1)
	var sum int64
	for _, c := range spec.counts() {
		if c < 0 {
			t.Fatal("negative count")
		}
		sum += c
	}
	if sum != 123457 {
		t.Fatalf("counts sum to %d, want 123457", sum)
	}
}

func TestDatasets(t *testing.T) {
	for _, name := range DatasetNames() {
		spec := Dataset(name, 5000, 1)
		kvs := core.Collect(spec.Stream())
		if len(kvs) != 5000 {
			t.Fatalf("%s: %d tuples", name, len(kvs))
		}
		// Word-count semantics: all values 1.
		for _, kv := range kvs[:100] {
			if kv.Val != 1 {
				t.Fatalf("%s: value %d", name, kv.Val)
			}
		}
	}
}

func TestUnknownDatasetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	Dataset("nope", 10, 1)
}

// BenchmarkWorkloadZipf measures the Zipf stream generator.
func BenchmarkWorkloadZipf(b *testing.B) {
	s := Zipf(1<<16, int64(b.N)+1, 1.1, Shuffled, 1).Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s(); !ok {
			b.Fatal("stream exhausted")
		}
	}
}
