package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"uots/internal/core"
)

// Experiment is one reproducible table/figure of the evaluation.
type Experiment struct {
	ID   string // experiment index used in DESIGN.md / EXPERIMENTS.md (e.g. "F2")
	Name string // CLI name (e.g. "locations")
	Desc string
	Run  func(ctx context.Context, w io.Writer, p Profile) error
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "settings", "dataset and parameter settings", Settings},
		{"T2", "pruning", "pruning effectiveness (candidate/visited ratios)", Pruning},
		{"T3", "scheduling", "scheduling-strategy ablation", SchedulingAblation},
		{"F1", "cardinality", "effect of trajectory cardinality |T|", Cardinality},
		{"F2", "locations", "effect of query location count |O|", Locations},
		{"F3", "lambda", "effect of preference parameter λ", Lambda},
		{"F4", "topk", "effect of result count k", TopK},
		{"F5", "keywords", "effect of query keyword count |ψ|", Keywords},
		{"F6", "workers", "effect of worker count m (batch throughput)", Workers},
		{"F7", "threshold", "effect of similarity threshold θ", Threshold},
		{"F8", "disk", "disk-resident store vs memory (LRU buffer budgets)", DiskResident},
		{"F9", "locality", "effect of query-location spread (clustered → city-wide)", Locality},
	}
}

// ByName returns the experiment with the given CLI name.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name || e.ID == name {
			return e, nil
		}
	}
	names := make([]string, 0)
	for _, e := range All() {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, names)
}

// RunAll executes every experiment against the profile. Cancelling ctx
// aborts the in-flight experiment's searches and stops the sequence.
func RunAll(ctx context.Context, w io.Writer, p Profile) error {
	for _, e := range All() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "=== %s %s — %s ===\n\n", e.ID, e.Name, e.Desc); err != nil {
			return err
		}
		if err := e.Run(ctx, w, p); err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
	}
	return nil
}

// bothDatasets builds (cached) the profile's two cities.
func bothDatasets(p Profile) ([]*Dataset, error) {
	brn, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		return nil, err
	}
	nrn, err := BuildCached(p.NRNSpec(0))
	if err != nil {
		return nil, err
	}
	return []*Dataset{brn, nrn}, nil
}

// Settings reproduces the settings table: the two datasets' shapes and
// the evaluation's default parameters.
func Settings(ctx context.Context, w io.Writer, p Profile) error {
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	t := NewTable("T1 dataset settings (profile "+p.Name+")",
		"dataset", "vertices", "edges", "trajectories", "avg samples", "avg keywords", "vocab")
	for _, ds := range dss {
		st := ds.Store.Stats()
		t.AddRow(ds.Name,
			fmt.Sprint(ds.Graph.NumVertices()),
			fmt.Sprint(ds.Graph.NumEdges()),
			fmt.Sprint(st.Trajectories),
			fmt.Sprintf("%.1f", st.AvgSamples),
			fmt.Sprintf("%.1f", st.AvgKeywords),
			fmt.Sprint(ds.Vocab.Vocab.Size()))
	}
	if err := t.Fprint(w); err != nil {
		return err
	}
	d := DefaultQuerySpec()
	t2 := NewTable("T1b default query parameters",
		"|O|", "|ψ|", "λ", "k", "queries/cell")
	t2.AddRow(fmt.Sprint(d.Locations), fmt.Sprint(d.Keywords),
		fmt.Sprintf("%.1f", d.Lambda), fmt.Sprint(d.K), fmt.Sprint(p.Queries))
	return t2.Fprint(w)
}

// Pruning reproduces the pruning-effectiveness table: candidate and
// visited ratios per algorithm at default settings.
func Pruning(ctx context.Context, w io.Writer, p Profile) error {
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	t := NewTable("T2 pruning effectiveness (default settings)",
		"dataset", "algorithm", "cand ratio", "prune ratio", "visit ratio", "mean ms")
	for _, ds := range dss {
		queries := GenQueries(ds, DefaultQuerySpec(), p.Queries)
		aggs, err := MeasureAll(ctx, ds, DefaultAlgos(), queries, 0)
		if err != nil {
			return err
		}
		for _, a := range aggs {
			t.AddRow(ds.Name, a.Algo, fmtRatio(a.CandRatio),
				fmtRatio(1-a.CandRatio), fmtRatio(a.VisitRatio), fmtMs(a.MeanMs))
		}
	}
	return t.Fprint(w)
}

// sweep runs one single-parameter sweep on both datasets, producing the
// runtime and visited-trajectory series the paper's figures plot.
func sweep[T any](ctx context.Context, w io.Writer, p Profile, title, param string, values []T,
	makeSpec func(base QuerySpec, v T) QuerySpec, algos []AlgoConfig, theta func(v T) float64) error {
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	for _, ds := range dss {
		rt := NewTable(fmt.Sprintf("%s — runtime ms (%s)", title, ds.Name), header(param, algos)...)
		vt := NewTable(fmt.Sprintf("%s — visited trajectories (%s)", title, ds.Name), header(param, algos)...)
		for _, v := range values {
			spec := makeSpec(DefaultQuerySpec(), v)
			queries := GenQueries(ds, spec, p.Queries)
			th := 0.0
			if theta != nil {
				th = theta(v)
			}
			aggs, err := MeasureAll(ctx, ds, algos, queries, th)
			if err != nil {
				return err
			}
			rrow := []string{fmt.Sprint(v)}
			vrow := []string{fmt.Sprint(v)}
			for _, a := range aggs {
				rrow = append(rrow, fmtMs(a.MeanMs))
				vrow = append(vrow, fmtCount(a.MeanVisited))
			}
			rt.AddRow(rrow...)
			vt.AddRow(vrow...)
		}
		if err := rt.Fprint(w); err != nil {
			return err
		}
		if err := vt.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

func header(param string, algos []AlgoConfig) []string {
	h := []string{param}
	for _, a := range algos {
		h = append(h, a.Name)
	}
	return h
}

// Cardinality reproduces the |T| figures: both cities at 25/50/75/100% of
// the profile's corpus size.
func Cardinality(ctx context.Context, w io.Writer, p Profile) error {
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	for _, city := range []CityKind{CityBRN, CityNRN} {
		rtTitle := fmt.Sprintf("F1 effect of |T| — runtime ms (%s-like)", city)
		vtTitle := fmt.Sprintf("F1 effect of |T| — visited trajectories (%s-like)", city)
		algos := DefaultAlgos()
		rt := NewTable(rtTitle, header("|T|", algos)...)
		vt := NewTable(vtTitle, header("|T|", algos)...)
		baseTrajs := p.BRNTrajs
		spec := func(tr int) DatasetSpec { return p.BRNSpec(tr) }
		if city == CityNRN {
			baseTrajs = p.NRNTrajs
			spec = func(tr int) DatasetSpec { return p.NRNSpec(tr) }
		}
		for _, f := range fractions {
			trajs := int(f * float64(baseTrajs))
			ds, err := BuildCached(spec(trajs))
			if err != nil {
				return err
			}
			queries := GenQueries(ds, DefaultQuerySpec(), p.Queries)
			aggs, err := MeasureAll(ctx, ds, algos, queries, 0)
			if err != nil {
				return err
			}
			rrow := []string{fmt.Sprint(trajs)}
			vrow := []string{fmt.Sprint(trajs)}
			for _, a := range aggs {
				rrow = append(rrow, fmtMs(a.MeanMs))
				vrow = append(vrow, fmtCount(a.MeanVisited))
			}
			rt.AddRow(rrow...)
			vt.AddRow(vrow...)
		}
		if err := rt.Fprint(w); err != nil {
			return err
		}
		if err := vt.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

// Locations reproduces the |O| figures.
func Locations(ctx context.Context, w io.Writer, p Profile) error {
	return sweep(ctx, w, p, "F2 effect of |O|", "|O|", []int{1, 2, 4, 6, 8},
		func(b QuerySpec, v int) QuerySpec { b.Locations = v; return b },
		DefaultAlgos(), nil)
}

// Lambda reproduces the preference-parameter figures.
func Lambda(ctx context.Context, w io.Writer, p Profile) error {
	return sweep(ctx, w, p, "F3 effect of λ", "λ", []float64{0.1, 0.3, 0.5, 0.7, 0.9},
		func(b QuerySpec, v float64) QuerySpec { b.Lambda = v; return b },
		DefaultAlgos(), nil)
}

// TopK reproduces the k figures.
func TopK(ctx context.Context, w io.Writer, p Profile) error {
	return sweep(ctx, w, p, "F4 effect of k", "k", []int{1, 5, 10, 20, 50},
		func(b QuerySpec, v int) QuerySpec { b.K = v; return b },
		DefaultAlgos(), nil)
}

// Keywords reproduces the |ψ| figures.
func Keywords(ctx context.Context, w io.Writer, p Profile) error {
	return sweep(ctx, w, p, "F5 effect of |ψ|", "|ψ|", []int{1, 2, 4, 8},
		func(b QuerySpec, v int) QuerySpec { b.Keywords = v; return b },
		DefaultAlgos(), nil)
}

// Threshold reproduces the θ figures (threshold query variant; expansion
// vs exhaustive — TextFirst has no threshold form).
func Threshold(ctx context.Context, w io.Writer, p Profile) error {
	algos := []AlgoConfig{DefaultAlgos()[0], DefaultAlgos()[3]}
	return sweep(ctx, w, p, "F7 effect of θ", "θ", []float64{0.5, 0.6, 0.7, 0.8, 0.9},
		func(b QuerySpec, v float64) QuerySpec { return b },
		algos, func(v float64) float64 { return v })
}

// SchedulingAblation reproduces the paper's strategy ablation: the
// heuristic source scheduler against round-robin (no heuristic).
func SchedulingAblation(ctx context.Context, w io.Writer, p Profile) error {
	algos := []AlgoConfig{
		{Name: "heuristic", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleHeuristic}},
		{Name: "roundrobin", Kind: core.AlgoExpansion, Opts: core.Options{Scheduling: core.ScheduleRoundRobin}},
	}
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	t := NewTable("T3 scheduling ablation (default settings)",
		"dataset", "strategy", "mean ms", "visited", "settled", "early-term")
	for _, ds := range dss {
		queries := GenQueries(ds, DefaultQuerySpec(), p.Queries)
		aggs, err := MeasureAll(ctx, ds, algos, queries, 0)
		if err != nil {
			return err
		}
		for _, a := range aggs {
			t.AddRow(ds.Name, a.Algo, fmtMs(a.MeanMs), fmtCount(a.MeanVisited),
				fmtCount(a.MeanSettled), fmtRatio(a.EarlyTermRate))
		}
	}
	return t.Fprint(w)
}

// Workers reproduces the thread-count figure: wall-clock time of a fixed
// query batch under growing worker pools. The curve flattens at the
// host's core count, which EXPERIMENTS.md records beside the numbers.
func Workers(ctx context.Context, w io.Writer, p Profile) error {
	dss, err := bothDatasets(p)
	if err != nil {
		return err
	}
	counts := []int{1, 2, 4, 8}
	t := NewTable("F6 effect of worker count m (batch of queries, expansion)",
		"dataset", "m", "wallclock ms", "ms/query")
	for _, ds := range dss {
		e, err := core.NewEngine(ds.Store, core.Options{})
		if err != nil {
			return err
		}
		batch := GenQueries(ds, DefaultQuerySpec(), p.Queries*4)
		for _, m := range counts {
			_, stats, err := e.SearchBatch(ctx, batch, core.BatchOptions{Workers: m})
			if err != nil {
				return err
			}
			ms := float64(stats.WallClock.Microseconds()) / 1000.0
			t.AddRow(ds.Name, fmt.Sprint(m), fmtMs(ms), fmtMs(ms/float64(len(batch))))
		}
	}
	return t.Fprint(w)
}
