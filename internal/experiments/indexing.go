package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"time"

	"uots/internal/core"
)

// Indexing reproduces the F13 pruning-index experiment: the expansion
// search and the TextFirst baseline on the scan-dominated BRN corpus,
// each measured unassisted, with the on-demand ALT landmark bounds
// (Options.Landmarks — O(K·|τ|) per check, touches the store), and with
// the precomputed TrajBounds interval index (Options.Index — O(K) per
// check, no store access, enables the admission-time prune).
//
// Unlike the work-counter experiments this one reports per-query
// latency percentiles: the index's claim is that it removes Dijkstra
// and record-scan work from the hot path, which only wall clock shows
// honestly — landmark prunes that merely relabel work the engine would
// have skipped anyway move counters without moving time.
//
// Every assisted configuration is cross-validated in-experiment: its
// per-query results must be deeply equal to the unassisted run of the
// same algorithm (the strict-< prune contract), so a speedup reported
// here can never come from answering a different question.
func Indexing(ctx context.Context, w io.Writer, p Profile) error {
	ds, err := BuildCached(p.BRNSpec(0))
	if err != nil {
		return err
	}
	queries := GenQueries(ds, DefaultQuerySpec(), p.Queries*4)

	plain, err := core.NewEngine(ds.Store, core.Options{})
	if err != nil {
		return err
	}
	withLM, err := core.NewEngine(ds.Store, core.Options{Landmarks: ds.Landmarks()})
	if err != nil {
		return err
	}
	withIx, err := core.NewEngine(ds.Store, core.Options{Index: ds.Bounds()})
	if err != nil {
		return err
	}

	type config struct {
		name     string
		baseline string // name whose results these must equal ("" = is a baseline)
		run      func(q core.Query) ([]core.Result, core.SearchStats, error)
	}
	configs := []config{
		{"expansion/no-assist", "", plain.Search},
		{"expansion/landmarks", "expansion/no-assist", withLM.Search},
		{"expansion/trajbounds", "expansion/no-assist", withIx.Search},
		{"textfirst/no-assist", "", plain.TextFirstSearch},
		{"textfirst/trajbounds", "textfirst/no-assist", withIx.TextFirstSearch},
	}

	t := NewTable(fmt.Sprintf("F13 landmark/TrajBounds pruning index (%s, per-query latency)", ds.Name),
		"config", "p50 ms", "mean ms", "visited", "scans", "settled", "lm prunes", "speedup p50")
	baselines := make(map[string][][]core.Result)
	baselineP50 := make(map[string]float64)
	for _, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return err
		}
		lat := make([]float64, 0, len(queries))
		results := make([][]core.Result, 0, len(queries))
		var sum core.SearchStats
		for qi, q := range queries {
			start := time.Now()
			res, st, err := cfg.run(q)
			if err != nil {
				return fmt.Errorf("experiments: F13 %s: %w", cfg.name, err)
			}
			lat = append(lat, float64(time.Since(start).Microseconds())/1000)
			results = append(results, res)
			sum.Add(st)
			if cfg.baseline != "" && !reflect.DeepEqual(res, baselines[cfg.baseline][qi]) {
				return fmt.Errorf("experiments: F13 %s: query %d results diverged from %s — the prune is not byte-identical",
					cfg.name, qi, cfg.baseline)
			}
		}
		sort.Float64s(lat)
		p50 := percentile(lat, 0.50)
		mean := 0.0
		for _, v := range lat {
			mean += v
		}
		n := float64(len(lat))
		mean /= n
		speedup := "—"
		if cfg.baseline == "" {
			baselines[cfg.name] = results
			baselineP50[cfg.name] = p50
		} else if p50 > 0 {
			speedup = fmt.Sprintf("%.1fx", baselineP50[cfg.baseline]/p50)
		}
		t.AddRow(cfg.name, fmtMs(p50), fmtMs(mean),
			fmtCount(float64(sum.VisitedTrajectories)/n),
			fmtCount(float64(sum.ScanEvents)/n),
			fmtCount(float64(sum.SettledVertices)/n),
			fmtCount(float64(sum.LandmarkPrunes)/n),
			speedup)
	}
	return t.Fprint(w)
}
