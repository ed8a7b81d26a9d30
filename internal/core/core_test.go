package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestOpApply(t *testing.T) {
	cases := []struct {
		op      Op
		agg, v  int64
		want    int64
		wantStr string
	}{
		{OpSum, 3, 4, 7, "sum"},
		{OpMax, 3, 4, 4, "max"},
		{OpMax, 5, 4, 5, "max"},
		{OpMin, 3, 4, 3, "min"},
		{OpMin, 5, 4, 4, "min"},
		{OpCount, 3, 99, 4, "count"},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.agg, c.v); got != c.want {
			t.Errorf("%v.Apply(%d,%d) = %d, want %d", c.op, c.agg, c.v, got, c.want)
		}
		if c.op.String() != c.wantStr {
			t.Errorf("String = %q, want %q", c.op.String(), c.wantStr)
		}
	}
}

func TestOpIdentity(t *testing.T) {
	for _, op := range []Op{OpSum, OpMax, OpMin, OpCount} {
		f := func(v int16) bool {
			// Folding a value into the identity yields what a fresh
			// aggregator should hold.
			got := op.Apply(op.Identity(), int64(v))
			switch op {
			case OpSum, OpMax, OpMin:
				return got == int64(v)
			case OpCount:
				return got == 1
			}
			return false
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("op %v: %v", op, err)
		}
	}
}

func TestResultMergeKVAndEqual(t *testing.T) {
	r := make(Result)
	r.MergeKV(KV{"a", 1}, OpSum)
	r.MergeKV(KV{"a", 2}, OpSum)
	r.MergeKV(KV{"b", 5}, OpSum)
	want := Result{"a": 3, "b": 5}
	if !r.Equal(want) {
		t.Fatalf("r = %v, want %v (%s)", r, want, r.Diff(want, 5))
	}
	if r.Equal(Result{"a": 3}) {
		t.Fatal("Equal ignored missing key")
	}
	if r.Equal(Result{"a": 3, "b": 6}) {
		t.Fatal("Equal ignored value mismatch")
	}
}

func TestResultMergePartials(t *testing.T) {
	// Merging two partial results must equal aggregating the union stream,
	// for every operator — this is the property the switch/host merge step
	// (§3.1 step ⑨) relies on.
	for _, op := range []Op{OpSum, OpMax, OpMin, OpCount} {
		rng := rand.New(rand.NewSource(7))
		var s1, s2 []KV
		for i := 0; i < 500; i++ {
			kv := KV{fmt.Sprintf("k%d", rng.Intn(50)), int64(rng.Intn(100) - 50)}
			if rng.Intn(2) == 0 {
				s1 = append(s1, kv)
			} else {
				s2 = append(s2, kv)
			}
		}
		merged := Reference(op, s1)
		merged.Merge(Reference(op, s2), op)
		want := Reference(op, s1, s2)
		if !merged.Equal(want) {
			t.Errorf("op %v: merge of partials != union aggregate: %s", op, merged.Diff(want, 5))
		}
	}
}

func TestReferenceMatchesManualSum(t *testing.T) {
	got := Reference(OpSum,
		[]KV{{"x", 1}, {"y", 2}, {"x", 3}},
		[]KV{{"y", 4}, {"z", 5}},
	)
	want := Result{"x": 4, "y": 6, "z": 5}
	if !got.Equal(want) {
		t.Fatalf("Reference = %v, want %v", got, want)
	}
}

func TestDiffOutput(t *testing.T) {
	a := Result{"a": 1, "b": 2}
	b := Result{"a": 1, "b": 3, "c": 4}
	d := a.Diff(b, 10)
	if d == "<equal>" {
		t.Fatal("Diff reported equal for different results")
	}
	if a.Diff(a, 10) != "<equal>" {
		t.Fatal("Diff of identical results not <equal>")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if got := cfg.ShortSlots(); got != 16 {
		t.Fatalf("ShortSlots = %d, want 16 (32 AAs - 8 groups × 2 segs)", got)
	}
	if got := cfg.MaxMediumKeyBytes(); got != 8 {
		t.Fatalf("MaxMediumKeyBytes = %d, want 8", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumAAs = 0 },
		func(c *Config) { c.NumAAs = 65 },
		func(c *Config) { c.AARows = 0 },
		func(c *Config) { c.KPartBytes = 0 },
		func(c *Config) { c.KPartBytes = 5 },
		func(c *Config) { c.MediumGroups = 17 }, // 17×2 > 32
		func(c *Config) { c.MediumGroups = 1; c.MediumSegs = 1 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.DataChannels = 0 },
		func(c *Config) { c.AARows = 3; c.ShadowCopy = true },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
}

func TestTaskAndFlowStrings(t *testing.T) {
	f := FlowKey{Host: 3, Channel: 1}
	if f.String() != "h3/ch1" {
		t.Fatalf("FlowKey.String = %q", f.String())
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op String empty")
	}
}

func TestResultWireBytes(t *testing.T) {
	r := Result{"ab": 1, "cdef": 2}
	// (2+2+8) + (2+4+8) = 26.
	if got := r.WireBytes(); got != 26 {
		t.Fatalf("WireBytes = %d, want 26", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := ReferenceStreams(OpSum, SliceStream(nil)); len(got) != 0 {
		t.Fatal("ReferenceStreams of an empty stream non-empty")
	}
	if got := Reference(OpSum, nil); len(got) != 0 {
		t.Fatal("Reference of an empty slice non-empty")
	}
	if got := (Result{}).WireBytes(); got != 0 {
		t.Fatalf("empty result ships %d bytes", got)
	}
}

// TestCollectExactAcrossChunks: Collect and CollectTimed hand back exactly
// the stream's elements, in order, on both sides of every chunk boundary; an
// empty stream is nil, and a stream longer than one chunk comes back in a
// slice of exactly its length.
func TestCollectExactAcrossChunks(t *testing.T) {
	for _, n := range []int{0, 1, collectChunk - 1, collectChunk, collectChunk + 1, 3*collectChunk + 7} {
		i := 0
		timed := func() (TimedKV, bool) {
			if i >= n {
				return TimedKV{}, false
			}
			i++
			return TimedKV{KV: KV{Key: fmt.Sprint("k", i), Val: int64(i)}, At: time.Duration(i)}, true
		}
		tkvs := CollectTimed(timed)
		kvs := Collect(SliceTimedStream(tkvs).Untimed())
		if n == 0 {
			if tkvs != nil || kvs != nil {
				t.Fatalf("empty stream collected to %v / %v, want nil", tkvs, kvs)
			}
			continue
		}
		if len(tkvs) != n || len(kvs) != n {
			t.Fatalf("n=%d: collected %d timed, %d plain", n, len(tkvs), len(kvs))
		}
		if n > collectChunk && (cap(tkvs) != n || cap(kvs) != n) {
			t.Errorf("n=%d: capacities %d / %d, want exact", n, cap(tkvs), cap(kvs))
		}
		for j := range tkvs {
			want := TimedKV{KV: KV{Key: fmt.Sprint("k", j+1), Val: int64(j + 1)}, At: time.Duration(j + 1)}
			if tkvs[j] != want || kvs[j] != want.KV {
				t.Fatalf("n=%d element %d: %v / %v, want %v", n, j, tkvs[j], kvs[j], want)
			}
		}
	}
}
