package pqueue

// Indexed is an indexed binary min-heap over integer keys in [0, n) with
// float64 priorities. It supports DecreaseKey in O(log n), the operation
// Dijkstra needs, and O(1) membership and priority lookups.
//
// Keys are dense small integers (vertex IDs); the heap keeps a position
// table of size n. Create one per graph and Reset it between runs — Reset
// is O(number of touched keys), not O(n).
type Indexed struct {
	prio    []float64 // prio[key] = current priority (valid while queued)
	pos     []int32   // pos[key] = index into keys, or posAbsent
	keys    []int32   // heap array of keys, ordered by prio
	touched []int32   // keys whose pos entry must be cleared on Reset
}

const posAbsent = int32(-1)

// NewIndexed returns an indexed heap for keys in [0, n).
func NewIndexed(n int) *Indexed {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = posAbsent
	}
	return &Indexed{
		prio: make([]float64, n),
		pos:  pos,
	}
}

// Len returns the number of queued keys.
func (h *Indexed) Len() int { return len(h.keys) }

// Contains reports whether key is currently queued.
func (h *Indexed) Contains(key int32) bool { return h.pos[key] != posAbsent }

// Push inserts key with the given priority. If the key is already queued,
// Push behaves as DecreaseKey when prio is lower than the current priority
// and does nothing otherwise, so Dijkstra can use a single "relax" call.
func (h *Indexed) Push(key int32, prio float64) {
	if p := h.pos[key]; p != posAbsent {
		if prio < h.prio[key] {
			h.prio[key] = prio
			h.up(int(p))
		}
		return
	}
	h.prio[key] = prio
	h.pos[key] = int32(len(h.keys))
	h.keys = append(h.keys, key)
	h.touched = append(h.touched, key)
	h.up(len(h.keys) - 1)
}

// Pop removes and returns the queued key with the smallest priority.
// ok is false when the heap is empty.
func (h *Indexed) Pop() (key int32, prio float64, ok bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	key = h.keys[0]
	prio = h.prio[key]
	last := len(h.keys) - 1
	h.keys[0] = h.keys[last]
	h.pos[h.keys[0]] = 0
	h.keys = h.keys[:last]
	h.pos[key] = posAbsent
	if last > 0 {
		h.down(0)
	}
	return key, prio, true
}

// Peek returns the smallest-priority key without removing it.
func (h *Indexed) Peek() (key int32, prio float64, ok bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	return h.keys[0], h.prio[h.keys[0]], true
}

// Reset empties the heap in time proportional to the number of keys pushed
// since the previous Reset, keeping all backing storage.
func (h *Indexed) Reset() {
	for _, k := range h.touched {
		h.pos[k] = posAbsent
	}
	h.touched = h.touched[:0]
	h.keys = h.keys[:0]
}

func (h *Indexed) up(i int) {
	key := h.keys[i]
	p := h.prio[key]
	for i > 0 {
		parent := (i - 1) / 2
		pk := h.keys[parent]
		if h.prio[pk] <= p {
			break
		}
		h.keys[i] = pk
		h.pos[pk] = int32(i)
		i = parent
	}
	h.keys[i] = key
	h.pos[key] = int32(i)
}

func (h *Indexed) down(i int) {
	n := len(h.keys)
	key := h.keys[i]
	p := h.prio[key]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		ck := h.keys[child]
		if r := child + 1; r < n {
			if rk := h.keys[r]; h.prio[rk] < h.prio[ck] {
				child, ck = r, rk
			}
		}
		if p <= h.prio[ck] {
			break
		}
		h.keys[i] = ck
		h.pos[ck] = int32(i)
		i = child
	}
	h.keys[i] = key
	h.pos[key] = int32(i)
}
