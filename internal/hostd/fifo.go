package hostd

import "unsafe"

// fifo is a first-in-first-out queue of blocks: elements go in one at a time
// (push/pop) or as contiguous runs (reserve/take), and a run never straddles
// two blocks. Blocks double from fifoFirstBlock elements up to
// fifoMaxBlockBytes, so a queue that holds a handful of elements (a task
// queue, a long-key queue between packets, a receive queue that keeps up)
// costs one small block, while a backlog of tens of thousands of packets adds
// blocks without copying what is already queued. A drained block is kept for
// the next one the queue needs: steady-state traffic allocates nothing.
//
// A block's length is how far it is filled; a run that did not fit in the
// rest of a block opened the next one, leaving that rest unused.
type fifo[T any] struct {
	head  []T // the oldest block; head[lo:] is queued
	lo    int
	more  [][]T // the blocks after head, oldest first; the last is the newest
	spare [][]T // drained blocks kept for reuse, at length zero
	n     int   // elements queued
	grow  int   // capacity of the next fresh block
}

// Blocks start at fifoFirstBlock elements and double up to fifoMaxBlockBytes.
const (
	fifoFirstBlock    = 8
	fifoMaxBlockBytes = 64 << 10
)

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) { q.reserve(1)[0] = v }

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	r := q.take(1)
	v := r[0]
	var zero T
	r[0] = zero // drop the reference the block would keep alive
	return v
}

// reserve appends a contiguous run of k > 0 elements and returns it for the
// caller to fill; it starts a new block when the newest one has no k
// elements left.
func (q *fifo[T]) reserve(k int) []T {
	tail := &q.head
	if len(q.more) > 0 {
		tail = &q.more[len(q.more)-1]
	}
	if cap(*tail)-len(*tail) < k {
		b := q.newBlock(k)
		if len(q.head) == 0 { // an empty queue: b takes the place of its block
			if q.head != nil {
				q.spare = append(q.spare, q.head)
			}
			q.head = b
		} else {
			q.more = append(q.more, b)
			tail = &q.more[len(q.more)-1]
		}
	}
	n := len(*tail)
	*tail = (*tail)[:n+k]
	q.n += k
	return (*tail)[n : n+k : n+k]
}

// take removes the oldest run, which must have been reserved with the same
// k, and returns it. The run's storage is the queue's again: it keeps its
// contents only until the next reserve.
func (q *fifo[T]) take(k int) []T {
	r := q.head[q.lo : q.lo+k : q.lo+k]
	q.lo += k
	q.n -= k
	if q.lo == len(q.head) {
		q.lo = 0
		if len(q.more) == 0 {
			q.head = q.head[:0] // drained: rewind in place
		} else {
			// The next run starts in the next block.
			q.spare = append(q.spare, q.head[:0])
			q.head = q.more[0]
			n := copy(q.more, q.more[1:])
			q.more[n] = nil
			q.more = q.more[:n]
		}
	}
	return r
}

// newBlock returns an empty block with room for at least k elements: a kept
// one if the most recently drained fits, else a fresh one. A kept block too
// small for k — only the first few are ever that small — is left to the
// collector.
func (q *fifo[T]) newBlock(k int) []T {
	for len(q.spare) > 0 {
		b := q.spare[len(q.spare)-1]
		q.spare[len(q.spare)-1] = nil
		q.spare = q.spare[:len(q.spare)-1]
		if cap(b) >= k {
			return b
		}
	}
	if q.grow == 0 {
		q.grow = fifoFirstBlock
	}
	n := max(q.grow, k)
	var zero T
	q.grow = min(2*q.grow, max(fifoFirstBlock, fifoMaxBlockBytes/max(1, int(unsafe.Sizeof(zero)))))
	return make([]T, 0, n)
}
