package hostd

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/keyspace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// wideLayout carries medium keys of 125 to 128 bytes in one 32-slot group, so
// addGroup rebuilds keys longer than its 64-byte stack buffer.
func wideLayout(t testing.TB) *keyspace.Layout {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NumAAs, cfg.MediumGroups, cfg.MediumSegs = 64, 1, 32
	l, err := keyspace.NewLayout(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// groupOf is the slot group a packet carries key and v in; nil for a long key.
func groupOf(l *keyspace.Layout, key string, v int64) []wire.Slot {
	pl := l.Place(key)
	if pl.Class == keyspace.Long {
		return nil
	}
	group := make([]wire.Slot, len(pl.KParts))
	for i, kp := range pl.KParts {
		group[i].KPart = kp
	}
	group[len(group)-1].Val = v
	return group
}

// segmentKey draws a key from a pool that holds the empty key, short and
// medium keys, keys longer than addGroup's stack buffer and keys longer than
// an arena chunk.
func segmentKey(rng *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	n := 1 + rng.Intn(8)
	switch r := rng.Intn(100); {
	case r == 0:
		return ""
	case r < 10:
		n = 125 + rng.Intn(4) // medium under wideLayout
	case r < 12:
		n = segChunk + 1 + rng.Intn(segChunk)
	case r < 20:
		n = 9 + rng.Intn(200)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(3)] // a small alphabet, so keys repeat
	}
	if n > 16 {
		b[rng.Intn(n)] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}

// TestSegmentMatchesReference merges seeded random streams into a segment —
// raw tuples through addGroup, addLong and add, partial aggregates through
// addGroup and add — and requires its result to equal a core.Result fed the
// same tuples: MergeKV for a raw tuple (Apply), Combine for a partial one
// (Count is where the two differ).
func TestSegmentMatchesReference(t *testing.T) {
	l := wideLayout(t)
	for _, op := range []core.Op{core.OpSum, core.OpMax, core.OpMin, core.OpCount} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := segment{op: op}
			want := core.Result{}
			for range 20_000 {
				key, v, partial := segmentKey(rng), rng.Int63n(2001)-1000, rng.Intn(4) == 0
				if partial {
					if cur, ok := want[key]; ok {
						want[key] = op.Combine(cur, v)
					} else {
						want[key] = v
					}
				} else {
					want.MergeKV(core.KV{Key: key, Val: v}, op)
				}
				switch group := groupOf(l, key, v); {
				case group != nil:
					s.addGroup(l, group, partial)
				case !partial && rng.Intn(2) == 0:
					s.addLong(wire.LongKV{Key: key, Val: v})
				default:
					s.add([]byte(key), v, partial)
				}
			}
			if got := s.result(); !got.Equal(want) {
				t.Fatalf("%v seed %d: segment differs from the reference: %s", op, seed, got.Diff(want, 5))
			}
		}
	}
}

// TestSegmentKeysStayPut holds the arena's promise: the keys of a result read
// the same after 10⁵ later inserts, chunk after chunk of them.
func TestSegmentKeysStayPut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := segment{op: core.OpSum}
	for range 5_000 {
		s.add([]byte(segmentKey(rng)), 1, false)
	}
	var kept [][2]string // a key of the result and an independent copy of it
	for k := range s.result() {
		kept = append(kept, [2]string{k, strings.Clone(k)})
	}
	for i := range 100_000 {
		s.add([]byte(segmentKey(rng)+string(rune('A'+i%26))), 1, false)
	}
	for _, k := range kept {
		if k[0] != k[1] {
			t.Fatalf("key %q reads %q after later inserts", k[1], k[0])
		}
	}
}

// segmentSink keeps BenchmarkSegmentMerge's result observable.
var segmentSink core.Result

// BenchmarkSegmentMerge merges 200 000 yelp tuples (29.4 k distinct keys)
// into a fresh segment per op, as a receiver's residue path does — slotted
// keys through addGroup, long ones through addLong — and builds the result.
func BenchmarkSegmentMerge(b *testing.B) {
	l, err := keyspace.NewLayout(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	kvs := core.Collect(workload.Dataset("yelp", 200_000, 1).Stream())
	groups := make([][]wire.Slot, len(kvs))
	for i, kv := range kvs {
		groups[i] = groupOf(l, kv.Key, kv.Val)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		s := segment{op: core.OpSum}
		for i, g := range groups {
			if g != nil {
				s.addGroup(l, g, false)
			} else {
				s.addLong(wire.LongKV{Key: kvs[i].Key, Val: kvs[i].Val})
			}
		}
		segmentSink = s.result()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(kvs)), "ns/tuple")
}
