package uots

import (
	"io"

	"uots/internal/core"
	"uots/internal/diskstore"
	"uots/internal/geo"
	"uots/internal/mapmatch"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// Spatial substrate.
type (
	// Point is a planar coordinate in kilometres.
	Point = geo.Point
	// Rect is an axis-aligned bounding box.
	Rect = geo.Rect
	// VertexID identifies a road-network vertex.
	VertexID = roadnet.VertexID
	// Graph is an immutable road network.
	Graph = roadnet.Graph
	// GraphBuilder assembles a Graph incrementally.
	GraphBuilder = roadnet.Builder
	// CityOptions parameterizes synthetic city generation.
	CityOptions = roadnet.CityOptions
	// GridStyle selects the structural family of a generated city.
	GridStyle = roadnet.GridStyle
	// VertexIndex snaps coordinates to network vertices.
	VertexIndex = roadnet.VertexIndex
	// Bidirectional is a reusable point-to-point shortest-path workspace.
	Bidirectional = roadnet.Bidirectional
)

// NewBidirectional returns a point-to-point shortest-path workspace on g.
func NewBidirectional(g *Graph) *Bidirectional { return roadnet.NewBidirectional(g) }

// Trajectory substrate.
type (
	// TrajID identifies a trajectory in a Store.
	TrajID = trajdb.TrajID
	// Sample is one timestamped trajectory point.
	Sample = trajdb.Sample
	// Trajectory is a sample sequence with textual attributes.
	Trajectory = trajdb.Trajectory
	// Store is an immutable trajectory database.
	Store = trajdb.Store
	// StoreBuilder accumulates trajectories into a Store.
	StoreBuilder = trajdb.Builder
	// DynamicStore is a mutable trajectory collection queried through
	// immutable dense snapshots.
	DynamicStore = trajdb.DynamicStore
	// ExternalID is a DynamicStore's stable trajectory handle.
	ExternalID = trajdb.ExternalID
	// TrajGenOptions parameterizes synthetic trip generation.
	TrajGenOptions = trajdb.GenOptions
)

// Textual substrate.
type (
	// TermID identifies a vocabulary term.
	TermID = textual.TermID
	// TermSet is a sorted, deduplicated keyword set.
	TermSet = textual.TermSet
	// Vocab maps keyword strings to TermIDs.
	Vocab = textual.Vocab
	// SyntheticVocab is a generated, topic-structured keyword universe.
	SyntheticVocab = textual.SyntheticVocab
)

// Engine types.
type (
	// TrajStore is the storage interface the engine runs on; *Store and
	// *DiskStore both implement it.
	TrajStore = core.TrajStore
	// DiskStore is the disk-resident trajectory store (memory-resident
	// indexes, LRU-buffered trajectory payloads).
	DiskStore = diskstore.Store
	// DiskCacheStats counts a DiskStore's buffer activity.
	DiskCacheStats = diskstore.CacheStats
	// Query is a UOTS query: intended places, intention keywords, λ, k.
	Query = core.Query
	// Result is one recommended trajectory with score decomposition.
	Result = core.Result
	// Engine answers UOTS queries over one Store.
	Engine = core.Engine
	// Options configures an Engine.
	Options = core.Options
	// SearchStats reports per-query work counters.
	SearchStats = core.SearchStats
	// Scheduling selects the query-source scheduling strategy.
	Scheduling = core.Scheduling
	// TimeWindow is the optional departure-time filter extension.
	TimeWindow = core.TimeWindow
	// DiversifyOptions tunes route-diversity re-ranking.
	DiversifyOptions = core.DiversifyOptions
	// BatchOptions configures parallel batch runs.
	BatchOptions = core.BatchOptions
	// BatchResult is one query's outcome in a batch.
	BatchResult = core.BatchResult
	// BatchStats aggregates a batch run.
	BatchStats = core.BatchStats
	// FaultStore wraps a TrajStore with deterministic fault and latency
	// injection for robustness testing.
	FaultStore = core.FaultStore
	// FaultConfig tunes a FaultStore.
	FaultConfig = core.FaultConfig
	// StoreError is the typed panic payload a TrajStore uses to signal an
	// unrecoverable mid-query failure.
	StoreError = trajdb.StoreError
)

// ErrStoreFault wraps every storage failure an engine entry point
// surfaces; test with errors.Is.
var ErrStoreFault = core.ErrStoreFault

// Map-matching substrate.
type (
	// Matcher snaps GPS traces onto a road network.
	Matcher = mapmatch.Matcher
	// MatchOptions tunes the matcher.
	MatchOptions = mapmatch.Options
)

// City generation styles.
const (
	// StyleSparse is the maze-like sparse family (BRN shape).
	StyleSparse = roadnet.StyleSparse
	// StyleDense is the dense urban-grid family (NRN shape).
	StyleDense = roadnet.StyleDense
)

// Engine constants.
const (
	ScheduleHeuristic  = core.ScheduleHeuristic
	ScheduleRoundRobin = core.ScheduleRoundRobin
	// MaxQueryLocations bounds len(Query.Locations).
	MaxQueryLocations = core.MaxQueryLocations
	// SecondsPerDay is the temporal domain length for Sample timestamps.
	SecondsPerDay = trajdb.SecondsPerDay
)

// NewEngine creates a search engine over any TrajStore — the in-memory
// *Store or a *DiskStore. A zero Options selects the paper configuration
// (heuristic scheduling, Jaccard text similarity, γ = 1 km).
func NewEngine(db TrajStore, opts Options) (*Engine, error) { return core.NewEngine(db, opts) }

// NewFaultStore wraps db with a deterministic fault/latency injection
// policy for robustness testing.
func NewFaultStore(db TrajStore, cfg FaultConfig) *FaultStore { return core.NewFaultStore(db, cfg) }

// CreateDiskStore writes src as a store file at path — the format
// WriteStore writes and ReadStore reads — plus the index sidecar
// path+".idx" that lets OpenDiskStore start without scanning the records.
func CreateDiskStore(path string, src *Store) error { return diskstore.Create(path, src) }

// OpenDiskStore opens a disk-store file over g with the given LRU buffer
// budget in bytes (≤0 selects the 64 MiB default).
func OpenDiskStore(path string, g *Graph, cacheBytes int) (*DiskStore, error) {
	return diskstore.Open(path, g, cacheBytes)
}

// NewStoreBuilder returns a trajectory builder over g; vocab may be nil
// when keywords are pre-interned.
func NewStoreBuilder(g *Graph, vocab *Vocab) *StoreBuilder { return trajdb.NewBuilder(g, vocab) }

// NewDynamicStore returns a mutable trajectory collection over g.
func NewDynamicStore(g *Graph, vocab *Vocab) *DynamicStore { return trajdb.NewDynamic(g, vocab) }

// ReconstructRoute expands a trajectory's samples into the full vertex
// path they imply (shortest paths between consecutive samples) and its
// length in km. bidir may be nil.
func ReconstructRoute(g *Graph, t *Trajectory, bidir *Bidirectional) ([]VertexID, float64, error) {
	return trajdb.ReconstructRoute(g, t, bidir)
}

// NewVocab returns an empty keyword vocabulary.
func NewVocab() *Vocab { return textual.NewVocab() }

// Tokenize splits free text into normalized keywords.
func Tokenize(text string) []string { return textual.Tokenize(text) }

// GenerateVocab creates a topic-structured synthetic keyword universe.
func GenerateVocab(topics, termsPerTopic int, zipf float64, seed uint64) *SyntheticVocab {
	return textual.GenerateVocab(topics, termsPerTopic, zipf, seed)
}

// GenerateCity builds a synthetic road network.
func GenerateCity(opts CityOptions) (*Graph, error) { return roadnet.GenerateCity(opts) }

// BRNLike generates a sparse Beijing-Road-Network-shaped city (scale=1 ≈
// 28k vertices).
func BRNLike(scale float64, seed uint64) *Graph { return roadnet.BRNLike(scale, seed) }

// NRNLike generates a dense New-York-Road-Network-shaped city (scale=1 ≈
// 96k vertices).
func NRNLike(scale float64, seed uint64) *Graph { return roadnet.NRNLike(scale, seed) }

// GenerateTrajectories synthesizes a trajectory corpus on g.
func GenerateTrajectories(g *Graph, opts TrajGenOptions) (*Store, error) {
	return trajdb.Generate(g, opts)
}

// Densify rebuilds a store with each trajectory's implied shortest-path
// route made explicit as interpolated samples, so searches measure
// distances to routes rather than to recorded sample points.
func Densify(s *Store) (*Store, error) { return trajdb.Densify(s) }

// NewVertexIndex builds a nearest-vertex grid index over g (cellSize ≤ 0
// picks a sensible default).
func NewVertexIndex(g *Graph, cellSize float64) *VertexIndex {
	return roadnet.NewVertexIndex(g, cellSize)
}

// NewMatcher returns an HMM map matcher over g (idx may be nil).
func NewMatcher(g *Graph, idx *VertexIndex, opts MatchOptions) *Matcher {
	return mapmatch.NewMatcher(g, idx, opts)
}

// CollapseRepeats removes consecutive duplicates from a matched vertex
// sequence.
func CollapseRepeats(vs []VertexID) []VertexID { return mapmatch.CollapseRepeats(vs) }

// ShortestPath returns a shortest path between two vertices and its
// length (bidirectional Dijkstra).
func ShortestPath(g *Graph, u, v VertexID) (path []VertexID, dist float64, ok bool) {
	return roadnet.ShortestPath(g, u, v)
}

// WriteGraph serializes g in the binary graph format.
func WriteGraph(w io.Writer, g *Graph) error { return roadnet.WriteGraph(w, g) }

// ReadGraph deserializes a graph written by WriteGraph.
func ReadGraph(r io.Reader) (*Graph, error) { return roadnet.ReadGraph(r) }

// WriteStore serializes a trajectory store (without its graph) as a
// store file: ReadStore loads it into memory, OpenDiskStore serves it
// from disk.
func WriteStore(w io.Writer, s *Store) error { return trajdb.WriteStore(w, s) }

// ReadStore deserializes a trajectory store over g.
func ReadStore(r io.Reader, g *Graph) (*Store, error) { return trajdb.ReadStore(r, g) }

// ExportCSV writes a store in the long-format CSV interchange format
// (traj_id, seq, vertex, time_seconds, keywords).
func ExportCSV(w io.Writer, s *Store) error { return trajdb.ExportCSV(w, s) }

// ImportCSV reads the CSV interchange format into a new store over g.
func ImportCSV(r io.Reader, g *Graph) (*Store, error) { return trajdb.ImportCSV(r, g) }

// ExportGeoJSON writes trajectories (all when ids is empty) as a GeoJSON
// FeatureCollection of LineStrings for map inspection.
func ExportGeoJSON(w io.Writer, s *Store, ids ...TrajID) error {
	return trajdb.ExportGeoJSON(w, s, ids...)
}
