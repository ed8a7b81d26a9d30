package training

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/ask"
	"repro/internal/core"
	"repro/internal/netsim"
)

func TestIndexKeyRoundtrip(t *testing.T) {
	f := func(raw uint32) bool {
		idx := raw % MaxTensorLen
		k := IndexKey(idx)
		if len(k) != 4 {
			return false
		}
		for i := 0; i < 4; i++ {
			if k[i] == 0 {
				return false
			}
		}
		got, err := ParseIndexKey(k)
		return err == nil && got == idx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexKeyInjective(t *testing.T) {
	seen := make(map[string]uint32)
	for i := uint32(0); i < 100000; i++ {
		k := IndexKey(i)
		if prev, dup := seen[k]; dup {
			t.Fatalf("indices %d and %d collide on %q", prev, i, k)
		}
		seen[k] = i
	}
}

func TestIndexKeyBound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	IndexKey(MaxTensorLen)
}

func TestParseIndexKeyErrors(t *testing.T) {
	if _, err := ParseIndexKey("abc"); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := ParseIndexKey("a\x00bc"); err == nil {
		t.Fatal("NUL key accepted")
	}
}

// tensor is one worker's gradient, the source Job.Send takes.
type tensor []int64

func (g tensor) Stream() core.Stream { return TensorStream(g) }

func TestValueStreamThroughASK(t *testing.T) {
	// §5.6 backward compatibility: gradient tensors from three workers,
	// pushed through the generic asynchronous KV path, must sum
	// elementwise — even over a lossy network.
	const n = 4096
	rng := rand.New(rand.NewSource(9))
	tensors := make([][]int64, 3)
	want := make([]int64, n)
	for w := range tensors {
		tensors[w] = make([]int64, n)
		for i := range tensors[w] {
			tensors[w][i] = int64(rng.Intn(2001) - 1000)
			want[i] += tensors[w][i]
		}
	}

	link := netsim.DefaultLinkConfig()
	link.Fault.LossProb = 0.01
	cl, err := ask.NewCluster(ask.Options{Hosts: 4, Link: link, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	job := ask.NewJob(core.TaskSpec{ID: 1, Receiver: 0, Op: core.OpSum})
	for w, g := range tensors {
		job.Send(core.HostID(w+1), tensor(g))
	}
	results, err := cl.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	got, err := DecodeTensor(res.Result, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("element %d = %d, want %d", i, got[i], want[i])
		}
	}
	// Value streams are switch-friendly: nearly all tuples absorbed.
	if ratio := res.Switch.AggregatedTupleRatio(); ratio < 0.9 {
		t.Fatalf("switch absorbed only %.1f%% of the value stream", 100*ratio)
	}
}

func TestDecodeTensorBounds(t *testing.T) {
	res := core.Result{IndexKey(10): 5}
	if _, err := DecodeTensor(res, 5); err == nil {
		t.Fatal("out-of-bounds index accepted")
	}
	if _, err := DecodeTensor(core.Result{"bad": 1}, 5); err == nil {
		t.Fatal("foreign key accepted")
	}
	got, err := DecodeTensor(res, 11)
	if err != nil || got[10] != 5 {
		t.Fatalf("decode: %v %v", got, err)
	}
}
