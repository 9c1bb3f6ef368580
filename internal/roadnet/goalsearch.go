package roadnet

// GoalSearch answers "how far is this vertex set from each root" for a
// fixed list of roots and a stream of target sets: the access path of
// the search engine's text probes and of its order-aware rerank, rooted
// at a query's locations for the life of one request. Each root owns one
// resumable Dijkstra (an Expander), started the first time Step advances
// it and kept across target sets, so a set an earlier set's search
// already reached costs no settle. Every distance it reports has the
// bits SSSP.Run from the root gives: Dijkstra's final distances do not
// depend on where a run was paused or resumed.
//
// A GoalSearch is not safe for concurrent use.
type GoalSearch struct {
	g       *Graph
	roots   []VertexID
	runs    []*Expander // runs[i] is root i's search, valid once started[i]
	started []bool
	targets []VertexID
	mark    []uint32 // mark[v] == epoch: v is in the current target set
	epoch   uint32
}

// NewGoalSearch returns a workspace on g rooted at roots.
func NewGoalSearch(g *Graph, roots []VertexID) *GoalSearch {
	gs := &GoalSearch{g: g, mark: make([]uint32, g.NumVertices())}
	gs.Reset(roots)
	return gs
}

// Reset roots the workspace at roots, one run per root, reusing storage.
// No run settles anything until Step advances it.
func (gs *GoalSearch) Reset(roots []VertexID) {
	gs.roots = append(gs.roots[:0], roots...)
	for len(gs.runs) < len(roots) {
		gs.runs = append(gs.runs, nil)
	}
	gs.started = append(gs.started[:0], make([]bool, len(roots))...)
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
	if !gs.started[i] {
		return Unreachable, false
	}
	s := &gs.runs[i].search
	d = Unreachable
	for _, v := range gs.targets {
		if s.settled[v] && s.dist[v] < d {
			d, ok = s.dist[v], true
		}
	}
	return d, ok || len(s.keys) == 0
}

// Dist returns root i's distance to v once root i's run has settled v;
// ok is false while v is unsettled (and for good once the run is
// exhausted without reaching v).
func (gs *GoalSearch) Dist(i int, v VertexID) (d float64, ok bool) {
	if !gs.started[i] || !gs.runs[i].search.settled[v] {
		return Unreachable, false
	}
	return gs.runs[i].search.dist[v], true
}

// Step settles the next vertex of root i's run, starting the run on first
// use, and returns its distance — the run's new radius — and whether it is
// in the target set. ok is false, with d Unreachable, once the run has
// settled root i's whole component.
func (gs *GoalSearch) Step(i int) (d float64, hit, ok bool) {
	if !gs.started[i] {
		gs.started[i] = true
		if gs.runs[i] == nil {
			gs.runs[i] = NewExpander(gs.g, gs.roots[i])
		} else {
			gs.runs[i].Reset(gs.roots[i])
		}
	}
	v, d, ok := gs.runs[i].Next()
	return d, ok && gs.mark[v] == gs.epoch, ok
}

// Radius returns the distance of root i's last settle: a lower bound on
// its distance to every vertex its run has not settled (0 before the run
// starts, Unreachable once it is exhausted).
func (gs *GoalSearch) Radius(i int) float64 {
	if !gs.started[i] {
		return 0
	}
	return gs.runs[i].Radius()
}
