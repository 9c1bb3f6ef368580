package roadnet

// Bidirectional is a reusable bidirectional-Dijkstra workspace for
// point-to-point shortest-path queries. On road-like graphs it settles
// roughly half the vertices a unidirectional search would, which matters
// for route reconstruction and densification (one query per gap between
// consecutive samples).
//
// A Bidirectional is not safe for concurrent use.
type Bidirectional struct {
	side   [2]search  // 0 searches forward from the source, 1 backward from the target (the graph is undirected)
	parent [2][]int32 // parent[i][v]: v's predecessor on side i, valid for the vertices its current run touched
}

// NewBidirectional returns a workspace for point-to-point queries on g.
func NewBidirectional(g *Graph) *Bidirectional {
	n := g.NumVertices()
	return &Bidirectional{
		side:   [2]search{newSearch(g), newSearch(g)},
		parent: [2][]int32{make([]int32, n), make([]int32, n)},
	}
}

// Dist returns the shortest-path distance from u to v. ok is false when v
// is unreachable from u.
func (b *Bidirectional) Dist(u, v VertexID) (float64, bool) {
	d, _ := b.run(u, v)
	return d, d != Unreachable
}

// Path returns a shortest path from u to v (u first) and its length.
// ok is false when v is unreachable from u.
func (b *Bidirectional) Path(u, v VertexID) (path []VertexID, dist float64, ok bool) {
	dist, meet := b.run(u, v)
	if dist == Unreachable {
		return nil, Unreachable, false
	}
	// Forward half: meet back to u, reversed into u..meet order.
	var fwd []VertexID
	for x := meet; x != -1; x = b.parent[0][x] {
		fwd = append(fwd, VertexID(x))
	}
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	// Backward half: the vertex after meet toward v.
	for x := b.parent[1][meet]; x != -1; x = b.parent[1][x] {
		fwd = append(fwd, VertexID(x))
	}
	return fwd, dist, true
}

// run executes the bidirectional search and returns the best distance and
// the vertex where the two search frontiers met (-1 if unreachable).
func (b *Bidirectional) run(u, v VertexID) (float64, int32) {
	for i, src := range [2]VertexID{u, v} {
		b.side[i].reset()
		b.side[i].push(int32(src), 0)
		b.parent[i][src] = -1
	}
	if u == v {
		return 0, int32(u)
	}
	best := Unreachable
	meet := int32(-1)
	// One point-to-point query, bounded by one component's vertices;
	// callers poll for cancellation between calls.
	for {
		// Termination: once the sum of the two frontier minima reaches the
		// best connecting distance found, no better connection exists. An
		// empty frontier reads Unreachable, so the sum stops the loop too.
		fTop, bTop := b.side[0].minKey(), b.side[1].minKey()
		if fTop+bTop >= best {
			return best, meet
		}
		// Expand the side with the smaller frontier minimum.
		i := 0
		if bTop < fTop {
			i = 1
		}
		this, other, parent := &b.side[i], &b.side[1-i], b.parent[i]
		x, d, _ := this.Pop()
		to, w := this.g.Neighbors(VertexID(x))
		for j, t := range to {
			if this.settled[t] {
				continue
			}
			nd := d + w[j]
			if this.push(t, nd) {
				parent[t] = x
			}
			if od := other.dist[t]; od != Unreachable {
				if cand := nd + od; cand < best {
					best = cand
					meet = t
				}
			}
		}
	}
}
