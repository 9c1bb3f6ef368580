// Benchmarks regenerating the paper's evaluation, one per table/figure
// (see DESIGN.md §5 and EXPERIMENTS.md). Each benchmark measures per-query
// cost under one workload cell and reports the paper's auxiliary metric —
// visited trajectories per query — via ReportMetric. The uotsbench command
// prints the same numbers as full tables at larger profiles.
package uots_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"uots/internal/core"
	"uots/internal/diskstore"
	"uots/internal/experiments"
)

// benchWorld returns the small-profile BRN-like dataset (cached across
// benchmarks within the process).
func benchWorld(b *testing.B) *experiments.Dataset {
	b.Helper()
	p := experiments.SmallProfile()
	ds, err := experiments.BuildCached(p.BRNSpec(0))
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchEngine(b *testing.B, ds *experiments.Dataset, cfg experiments.AlgoConfig) *core.Engine {
	b.Helper()
	opts := cfg.Opts
	if cfg.Kind != core.AlgoExhaustive && !cfg.NoLandmarks {
		opts.Landmarks = ds.Landmarks()
	}
	e, err := core.NewEngine(ds.Store, opts)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// runQueries cycles the workload through b.N iterations and reports the
// mean visited-trajectory count.
func runQueries(b *testing.B, e *core.Engine, cfg experiments.AlgoConfig, queries []core.Query, theta float64) {
	b.Helper()
	visited := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		var stats core.SearchStats
		var err error
		switch {
		case theta > 0 && cfg.Kind == core.AlgoExpansion:
			_, stats, err = e.SearchThreshold(q, theta)
		case theta > 0 && cfg.Kind == core.AlgoExhaustive:
			_, stats, err = e.ExhaustiveThreshold(q, theta)
		case cfg.Kind == core.AlgoExhaustive:
			_, stats, err = e.ExhaustiveSearch(q)
		case cfg.Kind == core.AlgoTextFirst:
			_, stats, err = e.TextFirstSearch(q)
		default:
			_, stats, err = e.Search(q)
		}
		if err != nil {
			b.Fatal(err)
		}
		visited += stats.VisitedTrajectories
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visited/query")
}

// benchCell runs one (algorithm, query-spec) cell as a sub-benchmark.
func benchCell(b *testing.B, spec experiments.QuerySpec, cfg experiments.AlgoConfig, theta float64) {
	ds := benchWorld(b)
	queries := experiments.GenQueries(ds, spec, 8)
	e := benchEngine(b, ds, cfg)
	runQueries(b, e, cfg, queries, theta)
}

func algoPair() []experiments.AlgoConfig {
	all := experiments.DefaultAlgos()
	return []experiments.AlgoConfig{all[0], all[3]} // expansion vs exhaustive
}

// BenchmarkPruningEffectiveness regenerates table T2: the four standing
// algorithm configurations at default settings.
func BenchmarkPruningEffectiveness(b *testing.B) {
	for _, cfg := range experiments.DefaultAlgos() {
		b.Run(cfg.Name, func(b *testing.B) {
			benchCell(b, experiments.DefaultQuerySpec(), cfg, 0)
		})
	}
}

// BenchmarkCardinality regenerates figure F1: runtime vs corpus size.
func BenchmarkCardinality(b *testing.B) {
	p := experiments.SmallProfile()
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		trajs := int(frac * float64(p.BRNTrajs))
		ds, err := experiments.BuildCached(p.BRNSpec(trajs))
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range algoPair() {
			b.Run(fmt.Sprintf("T=%d/%s", trajs, cfg.Name), func(b *testing.B) {
				queries := experiments.GenQueries(ds, experiments.DefaultQuerySpec(), 8)
				e := benchEngine(b, ds, cfg)
				runQueries(b, e, cfg, queries, 0)
			})
		}
	}
}

// BenchmarkQueryLocations regenerates figure F2: runtime vs |O|.
func BenchmarkQueryLocations(b *testing.B) {
	for _, nLoc := range []int{1, 4, 8} {
		for _, cfg := range algoPair() {
			b.Run(fmt.Sprintf("O=%d/%s", nLoc, cfg.Name), func(b *testing.B) {
				spec := experiments.DefaultQuerySpec()
				spec.Locations = nLoc
				benchCell(b, spec, cfg, 0)
			})
		}
	}
}

// BenchmarkLambda regenerates figure F3: runtime vs preference λ.
func BenchmarkLambda(b *testing.B) {
	for _, lambda := range []float64{0.1, 0.5, 0.9} {
		for _, cfg := range algoPair() {
			b.Run(fmt.Sprintf("lambda=%.1f/%s", lambda, cfg.Name), func(b *testing.B) {
				spec := experiments.DefaultQuerySpec()
				spec.Lambda = lambda
				benchCell(b, spec, cfg, 0)
			})
		}
	}
}

// BenchmarkTopK regenerates figure F4: runtime vs k.
func BenchmarkTopK(b *testing.B) {
	for _, k := range []int{1, 10, 50} {
		for _, cfg := range algoPair() {
			b.Run(fmt.Sprintf("k=%d/%s", k, cfg.Name), func(b *testing.B) {
				spec := experiments.DefaultQuerySpec()
				spec.K = k
				benchCell(b, spec, cfg, 0)
			})
		}
	}
}

// BenchmarkKeywords regenerates figure F5: runtime vs |ψ|.
func BenchmarkKeywords(b *testing.B) {
	for _, kw := range []int{1, 4, 8} {
		for _, cfg := range algoPair() {
			b.Run(fmt.Sprintf("kw=%d/%s", kw, cfg.Name), func(b *testing.B) {
				spec := experiments.DefaultQuerySpec()
				spec.Keywords = kw
				benchCell(b, spec, cfg, 0)
			})
		}
	}
}

// BenchmarkWorkers regenerates figure F6: batch wall clock vs worker count
// (shape limited by the host's core count, recorded in EXPERIMENTS.md).
func BenchmarkWorkers(b *testing.B) {
	ds := benchWorld(b)
	queries := experiments.GenQueries(ds, experiments.DefaultQuerySpec(), 32)
	e := benchEngine(b, ds, experiments.DefaultAlgos()[0])
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("m=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := e.SearchBatch(context.Background(), queries,
					core.BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(queries)), "queries/op")
		})
	}
}

// BenchmarkThreshold regenerates figure F7: runtime vs threshold θ
// (threshold query variant).
func BenchmarkThreshold(b *testing.B) {
	for _, theta := range []float64{0.6, 0.8, 0.9} {
		for _, cfg := range algoPair() {
			b.Run(fmt.Sprintf("theta=%.1f/%s", theta, cfg.Name), func(b *testing.B) {
				benchCell(b, experiments.DefaultQuerySpec(), cfg, theta)
			})
		}
	}
}

// BenchmarkScheduling regenerates table T3: the source-scheduling and
// probe ablations.
func BenchmarkScheduling(b *testing.B) {
	cfgs := []experiments.AlgoConfig{
		{Name: "heuristic", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleHeuristic}},
		{Name: "minradius", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleMinRadius}},
		{Name: "roundrobin", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleRoundRobin}},
		{Name: "no-probe", Kind: core.AlgoExpansion, Opts: core.Options{DisableTextProbe: true}},
		{Name: "no-landmarks", Kind: core.AlgoExpansion, NoLandmarks: true},
	}
	for _, cfg := range cfgs {
		b.Run(cfg.Name, func(b *testing.B) {
			benchCell(b, experiments.DefaultQuerySpec(), cfg, 0)
		})
	}
}

// BenchmarkDiskResident regenerates figure F8: the expansion search over
// the disk-resident store at two buffer budgets, against the in-memory
// rows of BenchmarkPruningEffectiveness.
func BenchmarkDiskResident(b *testing.B) {
	ds := benchWorld(b)
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.dsk")
	if err := diskstore.Create(path, ds.Store); err != nil {
		b.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{1.0, 0.05} {
		b.Run(fmt.Sprintf("buffer=%.0f%%", frac*100), func(b *testing.B) {
			disk, err := diskstore.Open(path, ds.Graph, int(frac*float64(info.Size())))
			if err != nil {
				b.Fatal(err)
			}
			defer disk.Close()
			e, err := core.NewEngine(disk, core.Options{Landmarks: ds.Landmarks()})
			if err != nil {
				b.Fatal(err)
			}
			// Textual-leaning workload: the pure expansion search is
			// index-only, so payload I/O appears on the probe paths,
			// which small λ exercises (see EXPERIMENTS.md F8).
			spec := experiments.DefaultQuerySpec()
			spec.Lambda = 0.2
			queries := experiments.GenQueries(ds, spec, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Search(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			st := disk.Stats()
			if st.Loads > 0 {
				b.ReportMetric(float64(st.Hits)/float64(st.Loads), "hit-rate")
			}
		})
	}
}

// BenchmarkSettings regenerates table T1's cost side: dataset construction
// itself (city generation + trajectory synthesis + index build).
func BenchmarkSettings(b *testing.B) {
	p := experiments.SmallProfile()
	b.Run("build-BRN-like", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec := p.BRNSpec(0)
			spec.Seed = uint64(i + 1000) // defeat the cache: measure real builds
			if _, err := spec.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
