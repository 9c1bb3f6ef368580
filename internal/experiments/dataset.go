// Package experiments implements the evaluation harness: dataset
// construction mirroring the paper's two cities, workload generation,
// per-algorithm measurement, and one function per table/figure of the
// reproduced evaluation (see EXPERIMENTS.md for the experiment index and
// recorded outcomes).
package experiments

import (
	"fmt"
	"sync"

	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// Dataset bundles one evaluation world: a road network shaped like one of
// the paper's cities, a keyword universe, and a trajectory corpus.
type Dataset struct {
	Name  string
	Graph *roadnet.Graph
	Vocab *textual.SyntheticVocab
	Store *trajdb.Store

	ixOnce sync.Once
	ix     *roadnet.VertexIndex
}

// VertexIndex returns (building lazily, once) the nearest-vertex grid
// index used by the workload generator and coordinate-based tooling.
func (d *Dataset) VertexIndex() *roadnet.VertexIndex {
	d.ixOnce.Do(func() {
		d.ix = roadnet.NewVertexIndex(d.Graph, 0)
	})
	return d.ix
}

// vertexIndexFor is a tiny indirection so workload code reads naturally.
func vertexIndexFor(d *Dataset) *roadnet.VertexIndex { return d.VertexIndex() }

// DatasetSpec parameterizes dataset construction.
type DatasetSpec struct {
	Name        string
	City        CityKind
	Scale       float64 // city size relative to the published network
	Trajs       int     // trajectory count
	MeanSamples int     // mean samples per trajectory (default 72)
	Topics      int     // keyword topics (default 12)
	TermsPer    int     // terms per topic (default 80)
	Seed        uint64
}

// CityKind selects which published road network the synthetic city mimics.
type CityKind int

const (
	// CityBRN mimics the Beijing Road Network (sparse, degree ≈ 2).
	CityBRN CityKind = iota
	// CityNRN mimics the New York Road Network (dense, degree ≈ 5.4).
	CityNRN
)

// String implements fmt.Stringer.
func (c CityKind) String() string {
	if c == CityNRN {
		return "NRN"
	}
	return "BRN"
}

// Build constructs the dataset. Construction is deterministic in the spec.
func (spec DatasetSpec) Build() (*Dataset, error) {
	if spec.Scale <= 0 {
		return nil, fmt.Errorf("experiments: dataset scale must be positive, got %g", spec.Scale)
	}
	if spec.MeanSamples == 0 {
		spec.MeanSamples = 72
	}
	if spec.Topics == 0 {
		spec.Topics = 12
	}
	if spec.TermsPer == 0 {
		spec.TermsPer = 80
	}
	var g *roadnet.Graph
	switch spec.City {
	case CityNRN:
		g = roadnet.NRNLike(spec.Scale, spec.Seed)
	default:
		g = roadnet.BRNLike(spec.Scale, spec.Seed)
	}
	vocab := textual.GenerateVocab(spec.Topics, spec.TermsPer, 1.0, spec.Seed^0x5bf0f3a9)
	store, err := trajdb.Generate(g, trajdb.GenOptions{
		Count:       spec.Trajs,
		MeanSamples: spec.MeanSamples,
		Vocab:       vocab,
		Seed:        spec.Seed ^ 0x243f6a88,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building %s: %w", spec.Name, err)
	}
	name := spec.Name
	if name == "" {
		name = fmt.Sprintf("%s-like(scale=%.2f,|T|=%d)", spec.City, spec.Scale, spec.Trajs)
	}
	return &Dataset{Name: name, Graph: g, Vocab: vocab, Store: store}, nil
}

// datasetCache memoizes datasets per process so benchmarks and experiment
// sweeps sharing a spec pay construction once.
var datasetCache sync.Map // DatasetSpec → *Dataset

// BuildCached returns the dataset for spec, constructing it at most once
// per process.
func BuildCached(spec DatasetSpec) (*Dataset, error) {
	if d, ok := datasetCache.Load(spec); ok {
		return d.(*Dataset), nil
	}
	d, err := spec.Build()
	if err != nil {
		return nil, err
	}
	actual, _ := datasetCache.LoadOrStore(spec, d)
	return actual.(*Dataset), nil
}

// Profile scales the whole evaluation to the host: city sizes, corpus
// sizes and query counts for each of the two datasets.
type Profile struct {
	Name       string
	BRNScale   float64
	BRNTrajs   int
	NRNScale   float64
	NRNTrajs   int
	Queries    int // queries per measurement cell
	MeanLength int // mean samples per trajectory
	Seed       uint64
}

// SmallProfile fits unit-test and quick-bench budgets (seconds).
func SmallProfile() Profile {
	return Profile{
		Name: "small", BRNScale: 0.2, BRNTrajs: 4000,
		NRNScale: 0.12, NRNTrajs: 6000,
		Queries: 8, MeanLength: 30, Seed: 1,
	}
}

// MediumProfile is the default for the uotsbench CLI (minutes).
func MediumProfile() Profile {
	return Profile{
		Name: "medium", BRNScale: 0.5, BRNTrajs: 30000,
		NRNScale: 0.25, NRNTrajs: 60000,
		Queries: 10, MeanLength: 50, Seed: 1,
	}
}

// FullProfile approaches the paper's published dataset shapes (tens of
// minutes, several GB of memory).
func FullProfile() Profile {
	return Profile{
		Name: "full", BRNScale: 1.0, BRNTrajs: 100000,
		NRNScale: 1.0, NRNTrajs: 1000000,
		Queries: 10, MeanLength: 72, Seed: 1,
	}
}

// ProfileByName resolves small/medium/full.
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "small":
		return SmallProfile(), nil
	case "medium":
		return MediumProfile(), nil
	case "full":
		return FullProfile(), nil
	default:
		return Profile{}, fmt.Errorf("experiments: unknown profile %q (want small, medium or full)", name)
	}
}

// BRNSpec returns the profile's Beijing-like dataset spec, with the
// trajectory count overridable (0 keeps the profile value).
func (p Profile) BRNSpec(trajs int) DatasetSpec {
	if trajs == 0 {
		trajs = p.BRNTrajs
	}
	return DatasetSpec{
		City: CityBRN, Scale: p.BRNScale, Trajs: trajs,
		MeanSamples: p.MeanLength, Seed: p.Seed,
	}
}

// NRNSpec returns the profile's New-York-like dataset spec.
func (p Profile) NRNSpec(trajs int) DatasetSpec {
	if trajs == 0 {
		trajs = p.NRNTrajs
	}
	return DatasetSpec{
		City: CityNRN, Scale: p.NRNScale, Trajs: trajs,
		MeanSamples: p.MeanLength, Seed: p.Seed,
	}
}
