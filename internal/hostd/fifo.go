package hostd

// fifo is a first-in-first-out queue that reuses its backing array. The slice
// idiom it replaces — append to push, q = q[1:] to pop — walks the array's
// capacity away, so a queue that holds one element at a time (a receive
// queue that keeps up, a long-key queue between packets) reallocates
// on every push. Here pop advances a head index, a drained queue rewinds to
// the start of its array, and push slides the live elements down before it
// would grow an array whose front half is dead: steady-state traffic
// allocates nothing, and every operation stays amortised O(1).
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.items) == cap(q.items) && q.head > len(q.items)/2 {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
}

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the reference the array would keep alive
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v
}
