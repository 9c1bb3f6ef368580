// Package trajdb implements the trajectory-database substrate: the
// trajectory model (map-matched, timestamped sample sequences with textual
// attributes), an immutable in-memory store with the two access paths the
// UOTS engine needs — a vertex→trajectories inverted index for network
// expansion scanning and a keyword inverted index for textual scoring —
// plus a synthetic trip generator and binary serialization.
package trajdb

import (
	"errors"
	"fmt"
	"sort"

	"uots/internal/geo"
	"uots/internal/roadnet"
	"uots/internal/textual"
)

// TrajID identifies a trajectory in a Store. IDs are dense: a store with n
// trajectories uses IDs 0..n-1.
type TrajID int32

// SecondsPerDay is the length of the temporal domain. Timestamps are
// seconds of day in [0, SecondsPerDay): dates are dropped because daily
// commuting patterns repeat (the convention of this research line).
const SecondsPerDay = 24 * 60 * 60

// Sample is one map-matched trajectory point: a network vertex and the
// time of day it was visited, in seconds.
type Sample struct {
	V roadnet.VertexID
	T float64
}

// Trajectory is a finite time-ordered sequence of samples plus the trip's
// textual attributes. Between consecutive samples the object is assumed to
// follow a shortest path (the standard map-matched-trajectory model).
type Trajectory struct {
	ID       TrajID
	Samples  []Sample
	Keywords textual.TermSet
}

// Len returns the number of samples.
func (t *Trajectory) Len() int { return len(t.Samples) }

// Start returns the first sample's timestamp.
func (t *Trajectory) Start() float64 { return t.Samples[0].T }

// End returns the last sample's timestamp.
func (t *Trajectory) End() float64 { return t.Samples[len(t.Samples)-1].T }

// Duration returns End − Start in seconds.
func (t *Trajectory) Duration() float64 { return t.End() - t.Start() }

// Errors reported by Builder.Add.
var (
	ErrNoSamples     = errors.New("trajdb: trajectory needs at least one sample")
	ErrVertexRange   = errors.New("trajdb: sample vertex out of graph range")
	ErrTimeOrder     = errors.New("trajdb: sample timestamps must be non-decreasing")
	ErrTimeRange     = errors.New("trajdb: sample timestamp outside [0, 86400)")
	ErrFrozenBuilder = errors.New("trajdb: builder already frozen")
)

// Builder accumulates trajectories and freezes them into a Store.
type Builder struct {
	g      *roadnet.Graph
	vocab  *textual.Vocab
	trajs  []Trajectory
	frozen bool
}

// NewBuilder returns a builder for trajectories on g. vocab is the keyword
// vocabulary used by AddWithKeywords; it may be nil when all trajectories
// are added with pre-interned term sets.
func NewBuilder(g *roadnet.Graph, vocab *textual.Vocab) *Builder {
	return &Builder{g: g, vocab: vocab}
}

// Count returns the number of trajectories added so far.
func (b *Builder) Count() int { return len(b.trajs) }

// ValidateSamples checks one trajectory's sample sequence against the
// store invariants: at least one sample, every vertex on the graph,
// timestamps non-decreasing within [0, SecondsPerDay). It is the exact
// rule set Builder.Add and DynamicStore.Add enforce, exported so write
// paths in front of the store (the ingest batcher) can reject bad input
// before queueing it.
func ValidateSamples(g *roadnet.Graph, samples []Sample) error {
	if len(samples) == 0 {
		return ErrNoSamples
	}
	n := roadnet.VertexID(g.NumVertices())
	prev := -1.0
	for i, s := range samples {
		if s.V < 0 || s.V >= n {
			return fmt.Errorf("%w: sample %d has vertex %d (graph has %d)", ErrVertexRange, i, s.V, n)
		}
		if s.T < 0 || s.T >= SecondsPerDay {
			return fmt.Errorf("%w: sample %d has t=%g", ErrTimeRange, i, s.T)
		}
		if s.T < prev {
			return fmt.Errorf("%w: sample %d has t=%g after %g", ErrTimeOrder, i, s.T, prev)
		}
		prev = s.T
	}
	return nil
}

// Add validates and appends a trajectory with an already-interned keyword
// set, returning its assigned ID.
func (b *Builder) Add(samples []Sample, keywords textual.TermSet) (TrajID, error) {
	if b.frozen {
		return -1, ErrFrozenBuilder
	}
	if err := ValidateSamples(b.g, samples); err != nil {
		return -1, err
	}
	id := TrajID(len(b.trajs))
	b.trajs = append(b.trajs, Trajectory{
		ID:       id,
		Samples:  append([]Sample(nil), samples...),
		Keywords: keywords,
	})
	return id, nil
}

// AddWithKeywords interns the keyword strings through the builder's vocab
// and appends the trajectory. It requires a non-nil vocab.
func (b *Builder) AddWithKeywords(samples []Sample, keywords []string) (TrajID, error) {
	if b.vocab == nil {
		return -1, errors.New("trajdb: AddWithKeywords requires a vocabulary")
	}
	return b.Add(samples, b.vocab.InternAll(keywords))
}

// Freeze builds the vertex and keyword indexes and returns the immutable
// Store. The builder must not be used afterwards.
func (b *Builder) Freeze() *Store {
	b.frozen = true
	s := &Store{
		Index:   newIndex(b.g, b.vocab),
		trajs:   b.trajs,
		vertsOf: make([][]roadnet.VertexID, len(b.trajs)),
	}
	for i := range s.trajs {
		t := &s.trajs[i]
		s.vertsOf[i] = s.add(t.Samples, t.Keywords)
		s.totalSamples += len(t.Samples)
	}
	s.textIx.Freeze()
	return s
}

// uniqueVertices returns the ascending unique vertices of samples — the
// membership list behind ContainsVertex and UniqueVertices.
func uniqueVertices(samples []Sample) []roadnet.VertexID {
	vs := make([]roadnet.VertexID, len(samples))
	for j, smp := range samples {
		vs[j] = smp.V
	}
	sort.Slice(vs, func(a, b int) bool { return vs[a] < vs[b] })
	uniq := vs[:1]
	for _, v := range vs[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	return uniq
}

// trajIndexEntry derives one trajectory's per-store index data: the
// sorted unique vertex list (membership tests) and the planar bounding
// box of its samples. Index.add and the incremental snapshot extension
// must derive these identically, so the logic lives in one place.
func trajIndexEntry(g *roadnet.Graph, samples []Sample) ([]roadnet.VertexID, geo.Rect) {
	uniq := uniqueVertices(samples)
	box := geo.EmptyRect()
	for _, v := range uniq {
		box = box.ExtendPoint(g.Point(v))
	}
	return uniq, box
}

// Index is the memory-resident half of a trajectory store: the two access
// paths the engine searches through — vertex→trajectory postings for
// network expansion, the keyword inverted index for textual scoring —
// plus each trajectory's bounding box. Store holds one beside its
// resident records and File beside its record offsets; the sidecar
// (io.go) is its serialisation. Immutable once built and safe for
// concurrent use.
type Index struct {
	g        *roadnet.Graph
	vocab    *textual.Vocab
	vertexIx [][]TrajID // ascending trajectory IDs per vertex
	bboxes   []geo.Rect // bounding box of each trajectory's samples
	textIx   *textual.Index
}

func newIndex(g *roadnet.Graph, vocab *textual.Vocab) Index {
	return Index{
		g:        g,
		vocab:    vocab,
		vertexIx: make([][]TrajID, g.NumVertices()),
		textIx:   textual.NewIndex(),
	}
}

// add indexes the next trajectory (IDs are dense, so its ID is the
// current count) and returns its ascending unique vertices. The caller
// freezes textIx after the last add.
func (ix *Index) add(samples []Sample, keywords textual.TermSet) []roadnet.VertexID {
	id := TrajID(len(ix.bboxes))
	uniq, box := trajIndexEntry(ix.g, samples)
	for _, v := range uniq {
		ix.vertexIx[v] = append(ix.vertexIx[v], id)
	}
	ix.bboxes = append(ix.bboxes, box)
	ix.textIx.Add(textual.DocID(id), keywords)
	return uniq
}

// Graph returns the road network the trajectories live on.
func (ix *Index) Graph() *roadnet.Graph { return ix.g }

// Vocab returns the keyword vocabulary (nil if the store was built without
// one).
func (ix *Index) Vocab() *textual.Vocab { return ix.vocab }

// NumTrajectories returns the number of trajectories.
func (ix *Index) NumTrajectories() int { return len(ix.bboxes) }

// TrajsAtVertex returns the ascending list of trajectories that contain
// vertex v as a sample point — the inverted list scanned during network
// expansion. The result aliases the internal posting list, which an MVCC
// snapshot extension may share with every other generation of the
// store: it sits on the expansion hot path and is returned without a
// copy, so the caller must not modify it (an in-place sort or append
// would corrupt all generations at once). Callers that need to retain or
// reorder it must copy first; TestAliasedSliceContracts pins the
// aliasing so a silent contract change fails loudly.
func (ix *Index) TrajsAtVertex(v roadnet.VertexID) []TrajID { return ix.vertexIx[v] }

// TextIndex returns the keyword inverted index (DocID == TrajID).
func (ix *Index) TextIndex() *textual.Index { return ix.textIx }

// BBox returns the planar bounding rectangle of trajectory id's samples —
// the goal summary used by targeted (A*) distance queries.
func (ix *Index) BBox(id TrajID) geo.Rect { return ix.bboxes[id] }

// Store is an immutable trajectory database over one road network: the
// Index plus every record resident. It is safe for concurrent use.
type Store struct {
	Index
	trajs        []Trajectory
	vertsOf      [][]roadnet.VertexID // ascending unique vertices per trajectory
	totalSamples int
}

// TotalSamples returns the total sample count across all trajectories.
func (s *Store) TotalSamples() int { return s.totalSamples }

// AvgSamples returns the mean trajectory length in samples.
func (s *Store) AvgSamples() float64 {
	if len(s.trajs) == 0 {
		return 0
	}
	return float64(s.totalSamples) / float64(len(s.trajs))
}

// Traj returns the trajectory with the given ID. The result must not be
// modified.
func (s *Store) Traj(id TrajID) *Trajectory { return &s.trajs[id] }

// ContainsVertex reports whether trajectory id has v among its samples.
func (s *Store) ContainsVertex(id TrajID, v roadnet.VertexID) bool {
	vs := s.vertsOf[id]
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	return i < len(vs) && vs[i] == v
}

// UniqueVertices returns the ascending unique vertex IDs of trajectory id.
// Like TrajsAtVertex it returns the internal slice without a copy (every
// text probe reads one): the result is shared with every MVCC generation
// of this store and must not be modified.
func (s *Store) UniqueVertices(id TrajID) []roadnet.VertexID { return s.vertsOf[id] }

// Keywords returns the keyword set of trajectory id. Like TrajsAtVertex
// it returns the internal slice without a copy (per-candidate scoring
// path): the result is shared with the text index and with every MVCC
// generation of this store, and must not be modified.
func (s *Store) Keywords(id TrajID) textual.TermSet { return s.trajs[id].Keywords }

// Stats summarizes a store for logging and experiment tables.
type Stats struct {
	Trajectories  int
	TotalSamples  int
	AvgSamples    float64
	AvgKeywords   float64
	VertexesTouch int // vertices with at least one trajectory
}

// Stats computes summary statistics.
func (s *Store) Stats() Stats {
	st := Stats{
		Trajectories: len(s.trajs),
		TotalSamples: s.totalSamples,
		AvgSamples:   s.AvgSamples(),
	}
	var kw int
	for i := range s.trajs {
		kw += len(s.trajs[i].Keywords)
	}
	if len(s.trajs) > 0 {
		st.AvgKeywords = float64(kw) / float64(len(s.trajs))
	}
	for _, l := range s.vertexIx {
		if len(l) > 0 {
			st.VertexesTouch++
		}
	}
	return st
}
