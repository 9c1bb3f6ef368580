// Package core implements the UOTS engine — the primary contribution of
// the reproduced paper: user-oriented trajectory search over a spatial
// network, matching a set of intended query locations (spatial domain) and
// a set of travel-intention keywords (textual domain) against a trajectory
// database, with the two domains combined linearly by a preference
// parameter λ.
//
// Three algorithms are provided:
//
//   - the expansion search (the paper's algorithm): concurrent incremental
//     network expansion from every query location with upper-bound pruning,
//     early termination, and a heuristic query-source scheduling strategy;
//   - the Exhaustive baseline: full Dijkstra per query location, exact
//     scores for every trajectory;
//   - the TextFirst baseline: descending textual order with per-candidate
//     exact spatial evaluation.
//
// See DESIGN.md at the repository root for the reconstruction notes: the
// similarity definitions follow the BCT `Σ e^{−d}` family the paper
// extends, and the expansion/pruning/scheduling framework follows the
// description of UOTS in the authors' later papers.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"uots/internal/index"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// MaxQueryLocations bounds the number of query locations; the engine
// tracks per-source scan state in a 64-bit mask. The paper's experiments
// use single-digit location counts.
const MaxQueryLocations = 64

// Query is a UOTS query: the places the user intends to visit, the
// keywords describing the intention, the spatial/textual preference λ, and
// the number of trajectories to recommend.
type Query struct {
	// Locations are the intended places, as network vertices (snap raw
	// coordinates with roadnet.VertexIndex first). At least one required.
	Locations []roadnet.VertexID
	// Keywords is the user's travel-intention term set (may be empty, in
	// which case the query degenerates to pure spatial search).
	Keywords textual.TermSet
	// Lambda weights spatial similarity against textual similarity:
	// SimST = λ·SimS + (1−λ)·SimT. Must be in [0, 1].
	Lambda float64
	// K is the number of trajectories to return (default 1 when zero).
	K int
}

// Errors returned by query validation.
var (
	ErrNoLocations       = errors.New("core: query needs at least one location")
	ErrTooManyLocations  = fmt.Errorf("core: more than %d query locations", MaxQueryLocations)
	ErrBadLambda         = errors.New("core: lambda must be in [0, 1]")
	ErrBadK              = errors.New("core: k must be non-negative")
	ErrLocationRange     = errors.New("core: query location outside graph")
	ErrBadThreshold      = errors.New("core: threshold must be in (0, 1]")
	ErrNilStore          = errors.New("core: engine requires a trajectory store")
	ErrEmptyStore        = errors.New("core: trajectory store is empty")
	ErrBadDistScale      = errors.New("core: DistScale must be positive")
	ErrUnknownScheduling = errors.New("core: unknown scheduling strategy")
	ErrTrajRange         = errors.New("core: trajectory id outside store")
)

// normalize validates q against g and fills defaults, returning the
// effective query.
func (q Query) normalize(g *roadnet.Graph) (Query, error) {
	if len(q.Locations) == 0 {
		return q, ErrNoLocations
	}
	if len(q.Locations) > MaxQueryLocations {
		return q, ErrTooManyLocations
	}
	for _, v := range q.Locations {
		if v < 0 || int(v) >= g.NumVertices() {
			return q, fmt.Errorf("%w: %d (graph has %d vertices)", ErrLocationRange, v, g.NumVertices())
		}
	}
	if q.Lambda < 0 || q.Lambda > 1 || math.IsNaN(q.Lambda) {
		return q, fmt.Errorf("%w: got %g", ErrBadLambda, q.Lambda)
	}
	if q.K < 0 {
		return q, fmt.Errorf("%w: got %d", ErrBadK, q.K)
	}
	if q.K == 0 {
		q.K = 1
	}
	return q, nil
}

// Result is one recommended trajectory with its score decomposition.
type Result struct {
	Traj    trajdb.TrajID
	Score   float64   // λ·Spatial + (1−λ)·Textual
	Spatial float64   // (1/|O|)·Σ e^{−d(o,τ)/γ}
	Textual float64   // textual similarity of the keyword sets
	Dists   []float64 // network distance from each query location to τ (km); +Inf when unreachable
}

// Scheduling selects the strategy for choosing which query source (query
// location) expands next in the expansion search.
type Scheduling int

const (
	// ScheduleHeuristic expands, among the sources still owed a scan by
	// a partly scanned trajectory the last rescan kept (one whose upper
	// bound is positive), the one with the smallest radius, and when no
	// source is owed one, the smallest-radius source. The first drives
	// partly scanned trajectories to fully scanned at the least
	// settled-area cost; the second shrinks the unseen bound fastest.
	// It keeps only the support of the paper's priority label (the
	// summed upper bound of the partly scanned trajectories a source has
	// not scanned): whether a source is owed a scan, not how much.
	ScheduleHeuristic Scheduling = iota
	// ScheduleRoundRobin cycles through sources — the "w/o heuristic"
	// ablation configuration of the paper's experiments.
	ScheduleRoundRobin
)

// String implements fmt.Stringer.
func (s Scheduling) String() string {
	switch s {
	case ScheduleHeuristic:
		return "heuristic"
	case ScheduleRoundRobin:
		return "roundrobin"
	default:
		return fmt.Sprintf("Scheduling(%d)", int(s))
	}
}

// Options configures an Engine. The zero value selects the paper
// configuration: heuristic scheduling, γ = 1 km. (SimT is Jaccard, the
// paper's choice; it is not an option.)
type Options struct {
	// Scheduling is the query-source scheduling strategy.
	Scheduling Scheduling
	// DistScale is γ, the kilometres-to-similarity scale of the spatial
	// kernel e^{−d/γ}. Default 1.
	DistScale float64
	// relabelEvery is the least number of expansion steps between
	// periodic bound/label refreshes and termination checks (rescans);
	// 64. Unexported, like rescanDivisor and probeRadiusFactor: one value
	// of each is in use, and only the in-package stress tests vary them
	// to shake out cadence- and policy-dependent bugs.
	relabelEvery int
	// rescanDivisor amortizes a rescan's sweep over the expansion work
	// between rescans: the next rescan comes max(relabelEvery,
	// ⌈|active|/rescanDivisor⌉) steps after one that kept |active|
	// candidates, so each sweep's O(|active|) cost is paid for by at
	// least |active|/rescanDivisor steps. 16, so the gap widens only past
	// 16·64 = 1 024 active candidates; negative turns it off (a rescan
	// every relabelEvery steps).
	rescanDivisor int
	// probeRadiusFactor sets the probe policy's radius floor, in units of
	// DistScale: textual blockers that would stop blocking once every
	// expansion radius reaches probeRadiusFactor·γ are left to the
	// expansion; only blockers that survive even that radius are resolved
	// with direct distance probes; 2.5.
	probeRadiusFactor float64
	// Index is ignored. It carried a landmark pruning index that the
	// engine consulted before any exact distance, since removed as a
	// measured wash; the field stays so that callers built against it
	// still compile.
	Index *index.TrajBounds
}

func (o Options) normalize() (Options, error) {
	if o.DistScale == 0 {
		o.DistScale = 1
	}
	if o.DistScale < 0 || math.IsNaN(o.DistScale) {
		return o, fmt.Errorf("%w: got %g", ErrBadDistScale, o.DistScale)
	}
	if o.relabelEvery == 0 {
		o.relabelEvery = 64
	}
	if o.rescanDivisor == 0 {
		o.rescanDivisor = 16
	}
	if o.probeRadiusFactor == 0 {
		o.probeRadiusFactor = 2.5
	}
	switch o.Scheduling {
	case ScheduleHeuristic, ScheduleRoundRobin:
	default:
		return o, fmt.Errorf("%w: %d", ErrUnknownScheduling, int(o.Scheduling))
	}
	return o, nil
}

// SearchStats reports the work a single query performed — the "number of
// visited trajectories" metric of the paper's evaluation plus supporting
// counters.
type SearchStats struct {
	// VisitedTrajectories is the number of distinct trajectories touched
	// (scanned by expansion, text-scored into candidacy, or evaluated by a
	// baseline) — the paper's data-access metric.
	VisitedTrajectories int
	// ScanEvents counts (query source, trajectory) scan events during
	// expansion.
	ScanEvents int
	// SettledVertices counts Dijkstra-settled vertices: the steps of the
	// request's one search per query location, whichever of the
	// expansion, the probes, the λ = 0 distance resolution and the
	// ordered scorings made them (a baseline counts its own searches').
	SettledVertices int
	// ProbeSettled counts the settles of the query-rooted search the text
	// probes and the order-aware scorings share, a part of SettledVertices.
	ProbeSettled int
	// Candidates is the number of trajectories whose exact score was
	// computed.
	Candidates int
	// TextScored is the number of trajectories scored by the textual
	// index.
	TextScored int
	// Probes counts adaptive text-probe distance computations and
	// order-aware scorings.
	Probes int
	// SharedBoundPrunes counts candidates pruned against a cross-partition
	// SharedBound that the local top-k threshold alone would have kept —
	// the work the shard executor's bound exchange saves. Always 0 outside
	// sharded execution.
	SharedBoundPrunes int
	// LandmarkPrunes is always 0. It counted the prunes of the deleted
	// landmark index (Options.Index) and stays on the wire so that
	// peers and callers built against it still decode and compile.
	LandmarkPrunes int
	// EarlyTerminated reports whether the upper bound dropped below the
	// pruning threshold before the search space was exhausted.
	EarlyTerminated bool
	// Elapsed is the wall-clock query time.
	Elapsed time.Duration
}

// Add accumulates other's work counters into s (used by the batch
// engine and the sharded scatter-gather executor). EarlyTerminated is
// not folded: its meaning across several searches is the caller's call.
func (s *SearchStats) Add(other SearchStats) {
	s.VisitedTrajectories += other.VisitedTrajectories
	s.ScanEvents += other.ScanEvents
	s.SettledVertices += other.SettledVertices
	s.ProbeSettled += other.ProbeSettled
	s.Candidates += other.Candidates
	s.TextScored += other.TextScored
	s.Probes += other.Probes
	s.SharedBoundPrunes += other.SharedBoundPrunes
	s.Elapsed += other.Elapsed
}
