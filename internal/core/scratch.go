package core

import (
	"uots/internal/pqueue"
	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// scratch is the working state of one request's expansion searches,
// drawn from the pool of the road network it searches
// (roadnet.Graph.Scratch) and put back when the request is done, so a
// query allocates none of its O(|V|) and O(|T|) arrays. The pool is
// shared by every engine over the graph (an ingesting server builds an
// engine per commit); the |T|-sized tables grow to the largest store
// seen.
//
// Everything a search writes is recorded where reset can undo it: the
// candidate table and the text scores through the lists of the IDs they
// hold, the expanders and the goal search through their own touched
// lists when they are next rooted. A request that ends in a panic (a
// store fault) never puts its scratch back, so a half-written one is
// never reused.
type scratch struct {
	g *roadnet.Graph

	solo    []soloExpander // one private Dijkstra per query location
	sources []expander     // per location: &solo[i], or a batch-shared frontier
	live    []bool
	radExp  []float64 // e^{−rᵢ/γ}; 0 once source i is exhausted
	kern    []float64 // probe scratch: e^{−d/γ} per location, d exact or a lower bound
	open    []bool    // probe scratch: the location's distance is still unknown

	goal       *roadnet.GoalSearch // probes' and rerank's query-rooted search; nil until first use
	goalRooted bool                // goal is rooted at the current request's locations

	cands    []*cand         // dense by TrajID; nil until first touch
	admitted []trajdb.TrajID // IDs whose cands entry is set
	active   []trajdb.TrajID // incomplete candidates; compacted at rescans
	text     []float64       // dense by TrajID: the textual score, 0 when none
	textIDs  []trajdb.TrajID // IDs whose text entry is set
	textHeap pqueue.Max[trajdb.TrajID]

	// Arenas the candidates and their distance vectors are cut from, one
	// chunk at a time; reset rewinds them.
	candSlab [][]cand
	candFree []cand
	candNext int
	distSlab [][]float64
	distFree []float64
	distNext int
}

// slabChunk is the number of candidates per arena chunk; a distance
// chunk holds slabChunk·4 floats, enough for 64 locations.
const slabChunk = 1024

// slabKeep is the number of chunks of each arena a scratch keeps in the
// pool: enough for a default query's few thousand candidates, while a
// city-wide search's tens of thousands are not held between requests.
const slabKeep = 4

// acquireScratch takes a workspace for a search over g against a store
// of nTraj trajectories.
func acquireScratch(g *roadnet.Graph, nTraj int) *scratch {
	s, _ := g.Scratch().Get().(*scratch)
	if s == nil {
		s = &scratch{g: g}
	}
	if len(s.cands) < nTraj {
		// Headroom: a growing store's next generations fit without a
		// new table each.
		n := nTraj + nTraj/8
		s.cands = make([]*cand, n)
		s.text = make([]float64, n)
	}
	return s
}

// forLocations sizes the per-location state for n query locations.
func (s *scratch) forLocations(n int) {
	for len(s.solo) < n {
		s.solo = append(s.solo, soloExpander{})
	}
	s.sources = resize(s.sources, n)
	s.live = resize(s.live, n)
	s.radExp = resize(s.radExp, n)
	s.kern = resize(s.kern, n)
	s.open = resize(s.open, n)
}

// resize returns xs with length n and every element zero, reusing its
// storage when it is large enough.
func resize[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// soloFor roots location i's private Dijkstra at src, scanning db.
func (s *scratch) soloFor(i int, src roadnet.VertexID, db TrajStore) *soloExpander {
	x := &s.solo[i]
	if x.exp == nil {
		x.exp = roadnet.NewExpander(s.g, src)
	} else {
		x.exp.Reset(src)
	}
	x.db = db
	return x
}

// rootGoal returns the goal search rooted at locations, rooting it on
// the request's first call; later calls of the same request get it as
// it stands, with every run it has made so far.
func (s *scratch) rootGoal(locations []roadnet.VertexID) *roadnet.GoalSearch {
	if !s.goalRooted {
		if s.goal == nil {
			s.goal = roadnet.NewGoalSearch(s.g, locations)
		} else {
			s.goal.Reset(locations)
		}
		s.goalRooted = true
	}
	return s.goal
}

// newCand cuts a zero candidate with nLoc distances out of the arenas.
func (s *scratch) newCand(nLoc int) *cand {
	if len(s.candFree) == 0 {
		if s.candNext == len(s.candSlab) {
			s.candSlab = append(s.candSlab, make([]cand, slabChunk))
		}
		s.candFree = s.candSlab[s.candNext]
		s.candNext++
	}
	if len(s.distFree) < nLoc {
		if s.distNext == len(s.distSlab) {
			s.distSlab = append(s.distSlab, make([]float64, 4*slabChunk))
		}
		s.distFree = s.distSlab[s.distNext]
		s.distNext++
	}
	c := &s.candFree[0]
	s.candFree = s.candFree[1:]
	*c = cand{dists: s.distFree[:nLoc:nLoc]}
	s.distFree = s.distFree[nLoc:]
	return c
}

// reset undoes what one expansion search wrote, keeping the goal search
// rooted: the order-aware rerank runs several searches on one scratch.
func (s *scratch) reset() {
	for _, id := range s.admitted {
		s.cands[id] = nil
	}
	s.admitted = s.admitted[:0]
	for _, id := range s.textIDs {
		s.text[id] = 0
	}
	s.textIDs = s.textIDs[:0]
	s.active = s.active[:0]
	s.textHeap.Reset()
	s.candFree, s.candNext = nil, 0
	s.distFree, s.distNext = nil, 0
	// Drop the references to the request's store and batch frontiers, so
	// a pooled scratch keeps no old snapshot alive.
	clear(s.sources)
	for i := range s.solo {
		s.solo[i].db = nil
	}
}

// release resets s and puts it back in its graph's pool, trimming its
// arenas to slabKeep chunks.
func (s *scratch) release() {
	s.reset()
	s.goalRooted = false
	s.candSlab = trim(s.candSlab, slabKeep)
	s.distSlab = trim(s.distSlab, slabKeep)
	s.g.Scratch().Put(s)
}

// trim drops the chunks of xs past the first n, releasing them to the
// garbage collector.
func trim[T any](xs [][]T, n int) [][]T {
	if len(xs) <= n {
		return xs
	}
	clear(xs[n:])
	return xs[:n]
}
