package roadnet

import "math"

// Unreachable is the distance reported for vertices that cannot be reached
// from the source.
var Unreachable = math.Inf(1)

// posAbsent marks a vertex that is not queued.
const posAbsent = int32(-1)

// search is the per-vertex state every graph search in this package runs
// on: tentative distances, the settled set, and an indexed binary min-heap
// of queued vertices with decrease-key. Every vertex whose distance
// leaves Unreachable is recorded once in touched, so reset costs time
// proportional to the vertices the previous run reached, not to the graph
// size. The faces (SSSP, Expander, GoalSearch, Bidirectional) differ in
// the heap key they push, in when they stop, and in what else they record
// (Bidirectional's parents, Expander's radius).
type search struct {
	g       *Graph
	dist    []float64
	settled []bool
	prio    []float64 // prio[v] = heap key of v (valid while queued)
	pos     []int32   // pos[v] = index of v in keys, or posAbsent
	keys    []int32   // heap array of vertices, ordered by prio
	touched []int32   // vertices whose state reset must clear
}

func newSearch(g *Graph) search {
	n := g.NumVertices()
	s := search{
		g:       g,
		dist:    make([]float64, n),
		settled: make([]bool, n),
		prio:    make([]float64, n),
		pos:     make([]int32, n),
	}
	for i := range s.dist {
		s.dist[i] = Unreachable
		s.pos[i] = posAbsent
	}
	return s
}

// reset clears the state of every vertex the previous run touched.
func (s *search) reset() {
	for _, v := range s.touched {
		s.dist[v] = Unreachable
		s.settled[v] = false
		s.pos[v] = posAbsent
	}
	s.touched = s.touched[:0]
	s.keys = s.keys[:0]
}

// push relaxes v to distance d. When d improves on v's distance, v is
// queued with heap key key, or has its key lowered to key if it is
// already queued with a larger one, and push reports true; otherwise
// nothing changes.
func (s *search) push(v int32, d, key float64) (improved bool) {
	if !(d < s.dist[v]) {
		return false
	}
	if s.dist[v] == Unreachable {
		s.touched = append(s.touched, v)
	}
	s.dist[v] = d
	if p := s.pos[v]; p != posAbsent {
		if key < s.prio[v] {
			s.prio[v] = key
			s.up(int(p))
		}
		return true
	}
	s.prio[v] = key
	s.pos[v] = int32(len(s.keys))
	s.keys = append(s.keys, v)
	s.up(len(s.keys) - 1)
	return true
}

// Pop removes the queued vertex with the smallest key, marks it settled
// and returns it with its key. ok is false when the queue is empty.
func (s *search) Pop() (v int32, key float64, ok bool) {
	if len(s.keys) == 0 {
		return 0, 0, false
	}
	v = s.keys[0]
	key = s.prio[v]
	last := len(s.keys) - 1
	s.keys[0] = s.keys[last]
	s.pos[s.keys[0]] = 0
	s.keys = s.keys[:last]
	s.pos[v] = posAbsent
	if last > 0 {
		s.down(0)
	}
	s.settled[v] = true
	return v, key, true
}

// minKey returns the smallest queued key, or Unreachable when the queue
// is empty.
func (s *search) minKey() float64 {
	if len(s.keys) == 0 {
		return Unreachable
	}
	return s.prio[s.keys[0]]
}

// Next is one Dijkstra step: it settles the nearest queued vertex and
// pushes each unsettled neighbour with key = distance. ok is false once
// the queue is empty.
func (s *search) Next() (v int32, d float64, ok bool) {
	v, d, ok = s.Pop()
	if !ok {
		return v, d, false
	}
	to, w := s.g.Neighbors(VertexID(v))
	for i, t := range to {
		if !s.settled[t] {
			nd := d + w[i]
			s.push(t, nd, nd)
		}
	}
	return v, d, true
}

func (s *search) up(i int) {
	key := s.keys[i]
	p := s.prio[key]
	for i > 0 {
		parent := (i - 1) / 2
		pk := s.keys[parent]
		if s.prio[pk] <= p {
			break
		}
		s.keys[i] = pk
		s.pos[pk] = int32(i)
		i = parent
	}
	s.keys[i] = key
	s.pos[key] = int32(i)
}

func (s *search) down(i int) {
	n := len(s.keys)
	key := s.keys[i]
	p := s.prio[key]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		ck := s.keys[child]
		if r := child + 1; r < n {
			if rk := s.keys[r]; s.prio[rk] < s.prio[ck] {
				child, ck = r, rk
			}
		}
		if p <= s.prio[ck] {
			break
		}
		s.keys[i] = ck
		s.pos[ck] = int32(i)
		i = child
	}
	s.keys[i] = key
	s.pos[key] = int32(i)
}
