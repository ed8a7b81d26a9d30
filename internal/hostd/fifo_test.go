//go:build !race

package hostd

import (
	"math/rand"
	"slices"
	"testing"
)

// live counts the non-zero elements anywhere in q's storage — queued, dead
// or kept — for a queue whose pushed values are never zero.
func live[T comparable](q *fifo[T]) int {
	var zero T
	n := 0
	count := func(b []T) {
		for _, v := range b[:cap(b)] {
			if v != zero {
				n++
			}
		}
	}
	count(q.head)
	for _, b := range q.more {
		count(b)
	}
	for _, b := range q.spare {
		count(b)
	}
	return n
}

// TestFifoMatchesSliceQueue drives random push/pop interleavings against a
// slice reference: bursts long enough to cross many block boundaries, and
// drains to empty. Every pop returns the reference's oldest element, and
// the queue's storage holds exactly its queued elements: a popped entry
// reads zero, in its block and in the blocks kept for reuse.
func TestFifoMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q fifo[int]
	var ref []int
	next, blocks := 1, 0
	for step := 0; step < 20000; step++ {
		switch burst := rng.Intn(300); {
		case rng.Intn(50) == 0: // drain to empty
			for len(ref) > 0 {
				if got := q.pop(); got != ref[0] {
					t.Fatalf("step %d: drain popped %d, want %d", step, got, ref[0])
				}
				ref = ref[1:]
			}
		case rng.Intn(2) == 0:
			for range burst {
				q.push(next)
				ref = append(ref, next)
				next++
			}
		default:
			for ; burst > 0 && len(ref) > 0; burst-- {
				if got := q.pop(); got != ref[0] {
					t.Fatalf("step %d: popped %d, want %d", step, got, ref[0])
				}
				ref = ref[1:]
			}
		}
		if q.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, q.len(), len(ref))
		}
		if n := live(&q); n != len(ref) {
			t.Fatalf("step %d: %d non-zero entries in storage, %d queued: a popped entry was not zeroed", step, n, len(ref))
		}
		blocks = max(blocks, 1+len(q.more))
	}
	if blocks < 4 {
		t.Fatalf("the queue held at most %d blocks at once, want a backlog across several", blocks)
	}
}

// TestFifoRunsAreContiguous pins the slot store's contiguity rule: a run
// that does not fit in the rest of the newest block starts the next block,
// and the take that matches it finds it there, intact. A peeked run stays
// queued. Random runs of 1–64 elements then round-trip in order.
func TestFifoRunsAreContiguous(t *testing.T) {
	var q fifo[int]
	a := q.reserve(5)
	copy(a, []int{1, 2, 3, 4, 5})
	b := q.reserve(5) // three left in the first block: b opens the next one
	copy(b, []int{6, 7, 8, 9, 10})
	if cap(q.head) != fifoFirstBlock || len(q.head) != 5 || len(q.more) != 1 || &q.more[0][0] != &b[0] {
		t.Fatalf("a run of 5 after 5 in a block of %d: head len %d cap %d, %d more blocks; want it to start the next block",
			fifoFirstBlock, len(q.head), cap(q.head), len(q.more))
	}
	if got := q.take(5); !slices.Equal(got, []int{1, 2, 3, 4, 5}) {
		t.Fatalf("first take %v", got)
	}
	if got := q.take(5); !slices.Equal(got, []int{6, 7, 8, 9, 10}) || &got[0] != &b[0] {
		t.Fatalf("second take %v, want the run from the start of the next block", got)
	}
	if q.len() != 0 {
		t.Fatalf("len %d after taking every run", q.len())
	}
	// A peeked run stays queued: what is reserved behind it lands behind it,
	// even when it is the only run left in its block.
	copy(q.reserve(3), []int{11, 12, 13})
	p := q.peek(3)
	copy(q.reserve(3), []int{14, 15, 16})
	if !slices.Equal(p, []int{11, 12, 13}) || q.len() != 6 {
		t.Fatalf("peeked run reads %v with %d queued after a reserve behind it", p, q.len())
	}
	if got := q.take(3); &got[0] != &p[0] {
		t.Fatal("take did not return the peeked run")
	}
	q.take(3)

	rng := rand.New(rand.NewSource(2))
	var runs [][]int
	next := 1
	for step := 0; step < 5000; step++ {
		if rng.Intn(2) == 0 {
			k := 1 + rng.Intn(64)
			r := q.reserve(k)
			if len(r) != k {
				t.Fatalf("reserve(%d) gave %d", k, len(r))
			}
			for i := range r {
				r[i] = next
				next++
			}
			runs = append(runs, slices.Clone(r))
		} else if len(runs) > 0 {
			if got := q.peek(len(runs[0])); !slices.Equal(got, runs[0]) {
				t.Fatalf("step %d: peeked %v, want %v", step, got, runs[0])
			}
			if got := q.take(len(runs[0])); !slices.Equal(got, runs[0]) {
				t.Fatalf("step %d: took %v, want %v", step, got, runs[0])
			}
			runs = runs[1:]
		}
	}
}

// TestFifoSteadyStateAllocatesNothing: once a queue has held a backlog of
// several full-size blocks, the same backlog again — element by element or in
// runs — reuses the blocks it kept.
func TestFifoSteadyStateAllocatesNothing(t *testing.T) {
	var q fifo[int]
	cycle := func() {
		for i := range 4 * fifoMaxBlockBytes / 8 {
			q.push(i + 1)
		}
		for q.len() > 0 {
			q.pop()
		}
		for i := range 300 {
			q.reserve(1 + i%40)
		}
		for i := range 300 {
			q.take(1 + i%40)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(20, cycle); a != 0 {
		t.Errorf("a warmed queue allocates %v objects per backlog cycle, want 0", a)
	}
}
