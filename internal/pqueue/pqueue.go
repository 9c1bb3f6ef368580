// Package pqueue provides the priority-queue building blocks used across
// the search engines: a plain generic binary heap and a bounded top-k
// heap. (The road network's Dijkstra heap, with decrease-key, lives in
// the vertex state of package roadnet.)
//
// All queues in this package are hand-rolled binary heaps rather than
// wrappers over container/heap: the hot loops of the search engine pop and
// push millions of items per query, and avoiding the interface indirection
// of container/heap measurably reduces per-operation cost.
package pqueue

// Min is a plain binary min-heap over items of type T ordered by a float64
// priority. The zero value is an empty, ready-to-use queue.
type Min[T any] struct {
	items []minItem[T]
}

type minItem[T any] struct {
	prio float64
	val  T
}

// Len returns the number of queued items.
func (q *Min[T]) Len() int { return len(q.items) }

// Push adds val with the given priority.
func (q *Min[T]) Push(prio float64, val T) {
	q.items = append(q.items, minItem[T]{prio, val})
	q.up(len(q.items) - 1)
}

// Pop removes and returns the item with the smallest priority.
// ok is false when the queue is empty.
func (q *Min[T]) Pop() (prio float64, val T, ok bool) {
	if len(q.items) == 0 {
		return 0, val, false
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = minItem[T]{} // release references held by popped slot
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return top.prio, top.val, true
}

// Peek returns the smallest-priority item without removing it.
func (q *Min[T]) Peek() (prio float64, val T, ok bool) {
	if len(q.items) == 0 {
		return 0, val, false
	}
	return q.items[0].prio, q.items[0].val, true
}

// Reset empties the queue but keeps its backing storage for reuse.
func (q *Min[T]) Reset() {
	clear(q.items)
	q.items = q.items[:0]
}

func (q *Min[T]) up(i int) {
	item := q.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if q.items[parent].prio <= item.prio {
			break
		}
		q.items[i] = q.items[parent]
		i = parent
	}
	q.items[i] = item
}

func (q *Min[T]) down(i int) {
	n := len(q.items)
	item := q.items[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.items[r].prio < q.items[child].prio {
			child = r
		}
		if item.prio <= q.items[child].prio {
			break
		}
		q.items[i] = q.items[child]
		i = child
	}
	q.items[i] = item
}

// Max is a plain binary max-heap over items of type T ordered by a float64
// priority. The zero value is an empty, ready-to-use queue.
type Max[T any] struct {
	inner Min[T]
}

// Len returns the number of queued items.
func (q *Max[T]) Len() int { return q.inner.Len() }

// Push adds val with the given priority.
func (q *Max[T]) Push(prio float64, val T) { q.inner.Push(-prio, val) }

// Pop removes and returns the item with the largest priority.
func (q *Max[T]) Pop() (prio float64, val T, ok bool) {
	p, v, ok := q.inner.Pop()
	return -p, v, ok
}

// Peek returns the largest-priority item without removing it.
func (q *Max[T]) Peek() (prio float64, val T, ok bool) {
	p, v, ok := q.inner.Peek()
	return -p, v, ok
}

// Reset empties the queue but keeps its backing storage for reuse.
func (q *Max[T]) Reset() { q.inner.Reset() }
