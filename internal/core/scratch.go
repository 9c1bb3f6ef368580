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
// Everything a search writes is recorded where release can undo it: the
// candidate table, the seen bitsets and the text scores through the
// lists of the IDs they hold, the goal search through its runs' touched
// lists when the next request roots it. A request that ends in a panic
// (a store fault) never puts its scratch back, so a half-written one is
// never reused.
type scratch struct {
	g *roadnet.Graph

	// goal is the request's one Dijkstra per query location, rooted
	// when the request acquires the scratch: the expansion scans its runs
	// through their cursors, and the probes, the λ = 0 distance
	// resolution, the ordered scorings and TextFirst's visits step them.
	goal *roadnet.GoalSearch

	live   []bool
	radExp []float64 // e^{−rᵢ/γ}; 0 once source i is exhausted
	kern   []float64 // probe scratch: e^{−d/γ} per location, d exact or a lower bound
	open   []bool    // probe scratch: the location's distance is still unknown
	base   []float64 // probe scratch: an open run's radius at the last bound evaluation

	// The ordered scoring's buffers: one trip's kernel table (|O| rows
	// of its samples) and its dynamic program's two rows.
	kernelAt, dp, next []float64

	cands    []*cand         // dense by TrajID; nil until first touch
	admitted []trajdb.TrajID // IDs whose cands entry is set, and every ID with a seen bit
	active   []trajdb.TrajID // incomplete candidates; compacted at rescans
	text     []float64       // dense by TrajID: the textual score, 0 when none
	textIDs  []trajdb.TrajID // IDs whose text entry is set
	textHeap pqueue.Max[trajdb.TrajID]

	// seen holds one bitset over trajectory IDs per query location,
	// seenWords words each: bit id of bitset i is set once source i's
	// scan has met trip id, so the scan loop skips a trip it met before
	// without loading its candidate. At 30 000 trips a bitset is 3.75 KB.
	seen      []uint64
	seenWords int

	// Arenas the candidates and their distance vectors are cut from, one
	// chunk at a time; release rewinds them.
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

// acquireScratch takes a workspace for one request over g against a
// store of nTraj trajectories, its goal search rooted at locations.
func acquireScratch(g *roadnet.Graph, nTraj int, locations []roadnet.VertexID) *scratch {
	s, _ := g.Scratch().Get().(*scratch)
	if s == nil {
		s = &scratch{g: g, goal: roadnet.NewGoalSearch(g, locations)}
	} else {
		s.goal.Reset(locations)
	}
	n := len(locations)
	s.live, s.radExp = resize(s.live, n), resize(s.radExp, n)
	s.kern, s.open, s.base = resize(s.kern, n), resize(s.open, n), resize(s.base, n)
	if len(s.cands) < nTraj {
		// Headroom: a growing store's next generations fit without a
		// new table each.
		size := nTraj + nTraj/8
		s.cands = make([]*cand, size)
		s.text = make([]float64, size)
		s.seen, s.seenWords = nil, (size+63)/64
	}
	if need := n * s.seenWords; len(s.seen) < need {
		s.seen = make([]uint64, need) // release keeps every bit clear
	}
	return s
}

// clearSeen zeroes the bitsets of nLoc sources: every set bit is an
// admitted ID, so the words that hold one are zeroed through that list,
// or the whole bitsets when that is fewer words.
func (s *scratch) clearSeen(nLoc int) {
	if len(s.admitted) >= s.seenWords {
		clear(s.seen[:nLoc*s.seenWords])
		return
	}
	for _, id := range s.admitted {
		for i := range nLoc {
			s.seen[i*s.seenWords+int(id>>6)] = 0
		}
	}
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

// release undoes what the request's search wrote, trims the arenas to
// slabKeep chunks and puts s back in its graph's pool. The goal search
// keeps its runs until the next request roots it.
func (s *scratch) release() {
	s.clearSeen(len(s.live))
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
