package roadnet

// GoalSearch is a request's one Dijkstra per root (a query location),
// shared by two kinds of caller. Step settles a run's next vertex
// against a marked target set (Target), so "how far is this vertex set
// from each root" costs only the settles no earlier caller made. Scan
// reads a run's settle order through a cursor: from the run's log (4 B
// per settle, as a settled vertex's distance is final) while the run is
// ahead of the cursor, by stepping the run otherwise. The order depends
// only on the graph and the root (the same heap, pushes and ties), and
// every distance has the bits SSSP.Run from the root gives: Dijkstra's
// final distances do not depend on where a run was paused or resumed.
//
// A GoalSearch is not safe for concurrent use.
type GoalSearch struct {
	g       *Graph
	roots   []VertexID
	runs    []*run // runs[i] is root i's search; as long as the most roots seen
	targets []VertexID
	mark    []uint32 // mark[v] == epoch: v is in the current target set
	epoch   uint32
}

// run is one root's resumable Dijkstra, the order it settled vertices
// in, and the expansion cursor into that order.
type run struct {
	search
	radius  float64 // distance of the last settle; Unreachable once exhausted
	log     []int32 // settled vertices, in settle order
	cursor  int     // entries of log Scan has returned since Reset
	scanned float64 // distance of the last Scan; Unreachable once it ran out
}

// NewGoalSearch returns a workspace on g rooted at roots.
func NewGoalSearch(g *Graph, roots []VertexID) *GoalSearch {
	gs := &GoalSearch{g: g, mark: make([]uint32, g.NumVertices())}
	gs.Reset(roots)
	return gs
}

// Reset roots the workspace at roots, one run per root, reusing storage.
// No run has settled anything, every cursor is at the start, and the
// target set is empty.
func (gs *GoalSearch) Reset(roots []VertexID) {
	gs.roots = append(gs.roots[:0], roots...)
	for i, root := range roots {
		if i == len(gs.runs) {
			gs.runs = append(gs.runs, &run{search: newSearch(gs.g)})
		}
		r := gs.runs[i]
		r.reset()
		r.push(int32(root), 0)
		r.radius, r.log, r.cursor, r.scanned = 0, r.log[:0], 0, 0
	}
	gs.Target(nil)
}

// Target makes set the current target set (Reset empties it). set must
// not change while it is the target.
func (gs *GoalSearch) Target(set []VertexID) {
	if gs.epoch++; gs.epoch == 0 { // wrapped: stale marks would match
		clear(gs.mark)
		gs.epoch = 1
	}
	for _, v := range set {
		gs.mark[v] = gs.epoch
	}
	gs.targets = set
}

// Known returns the distance from root i to the target set when root i's
// run has already settled one of its vertices — the smallest settled
// distance among them, exact because every unsettled vertex is at least
// the radius away — or has exhausted its component (Unreachable when it
// never met the set). ok is false otherwise.
func (gs *GoalSearch) Known(i int) (d float64, ok bool) {
	r := gs.runs[i]
	d = Unreachable
	for _, v := range gs.targets {
		if r.settled[v] && r.dist[v] < d {
			d, ok = r.dist[v], true
		}
	}
	return d, ok || len(r.keys) == 0
}

// Dist returns root i's distance to v once root i's run has settled v;
// ok is false while v is unsettled (and for good once the run is
// exhausted without reaching v).
func (gs *GoalSearch) Dist(i int, v VertexID) (d float64, ok bool) {
	if r := gs.runs[i]; r.settled[v] {
		return r.dist[v], true
	}
	return Unreachable, false
}

// Step settles the next vertex of root i's run and returns its distance
// — the run's new radius — and whether it is in the target set. ok is
// false, with d Unreachable, once the run has settled root i's whole
// component.
func (gs *GoalSearch) Step(i int) (d float64, hit, ok bool) {
	r := gs.runs[i]
	v, d, ok := r.Next()
	if !ok {
		r.radius = Unreachable
		return Unreachable, false, false
	}
	r.radius = d
	r.log = append(r.log, v)
	return d, gs.mark[v] == gs.epoch, true
}

// Scan returns the vertex under root i's cursor, with its distance, and
// moves the cursor past it: root i's settle order, one vertex per call,
// in non-decreasing distance order. It reads the log while the run is
// ahead of the cursor, and otherwise steps the run (settled reports
// that it did). ok is false once the cursor has passed every vertex of
// root i's component.
func (gs *GoalSearch) Scan(i int) (v VertexID, d float64, settled, ok bool) {
	r := gs.runs[i]
	if r.cursor == len(r.log) {
		if _, _, ok := gs.Step(i); !ok {
			r.scanned = Unreachable
			return -1, Unreachable, false, false
		}
		settled = true
	}
	v = VertexID(r.log[r.cursor])
	r.cursor++
	r.scanned = r.dist[v]
	return v, r.scanned, settled, true
}

// Radius returns the distance of root i's last settle, by Step or by
// Scan: a lower bound on its distance to every vertex its run has not
// settled (0 before the first settle, Unreachable once the run is
// exhausted). It is never below ScanRadius(i).
func (gs *GoalSearch) Radius(i int) float64 { return gs.runs[i].radius }

// ScanRadius returns the distance of root i's last Scan: a lower bound
// on its distance to every vertex the cursor has not passed (0 before
// the first Scan since Reset, Unreachable once Scan ran out).
func (gs *GoalSearch) ScanRadius(i int) float64 { return gs.runs[i].scanned }

// Settles returns the number of vertices root i's run has settled since
// Reset, whichever caller stepped it.
func (gs *GoalSearch) Settles(i int) int { return len(gs.runs[i].log) }
