package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"uots"
	"uots/benchmark/workload"
)

// scoreTolerance absorbs nothing but float formatting: the oracle runs
// the same arithmetic on the same corpus.
const scoreTolerance = 1e-9

// answer is what the benchmark reads of one search's reply.
type answer struct {
	Results []struct {
		Trajectory int32   `json:"trajectory"`
		Score      float64 `json:"score"`
	} `json:"results"`
}

// checkReads recomputes every kept read (each checkEvery-th) on an
// in-process oracle engine over the same dataset and compares trajectory
// IDs and scores with the HTTP body. On the ingest topology the corpus
// moves under the reads, so only the shape is checked there (at most k
// results, scores in [0,1] and non-increasing). It returns one line per
// mismatch.
func checkReads(ctx context.Context, d *workload.Dataset, w *workload.Workload, reads []op) ([]string, error) {
	oracle, err := uots.NewEngine(d.Store, uots.Options{})
	if err != nil {
		return nil, fmt.Errorf("building the oracle engine: %w", err)
	}
	var bad []string
	for _, o := range reads {
		if !o.ok || o.body == nil {
			continue
		}
		r := w.Reads[o.index%len(w.Reads)]
		got, err := decodeAnswers(r, o.body)
		if err != nil {
			bad = append(bad, fmt.Sprintf("read %d (%s): %v", o.index, r.Kind, err))
			continue
		}
		for j, s := range r.Searches {
			var msg string
			if w.Topology == workload.TopoIngest {
				msg = checkShape(got[j], s.K)
			} else {
				want, err := oracleAnswer(ctx, oracle, d, r.Kind, s)
				if err != nil {
					return nil, fmt.Errorf("oracle on read %d (%s): %w", o.index, r.Kind, err)
				}
				msg = compare(got[j], want)
			}
			if msg != "" {
				bad = append(bad, fmt.Sprintf("read %d (%s) query %d: %s", o.index, r.Kind, j, msg))
			}
		}
	}
	return bad, nil
}

// decodeAnswers returns one answer per search of r: the /search reply,
// or the entries of a /batch reply.
func decodeAnswers(r workload.Request, body []byte) ([]answer, error) {
	if r.Path == "/search" {
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		return []answer{a}, nil
	}
	var b struct {
		Responses []struct {
			answer
			Error string `json:"error"`
		} `json:"responses"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if len(b.Responses) != len(r.Searches) {
		return nil, fmt.Errorf("%d batch entries for %d queries", len(b.Responses), len(r.Searches))
	}
	out := make([]answer, len(b.Responses))
	for i, e := range b.Responses {
		if e.Error != "" {
			return nil, fmt.Errorf("batch entry %d: %s", i, e.Error)
		}
		out[i] = e.answer
	}
	return out, nil
}

// oracleAnswer computes the reference answer: the exhaustive scan for
// the plain and threshold searches, and for the re-ranking variants
// (which have no exhaustive twin) the same variant on the in-process
// engine, which still checks everything between the engine and the wire.
func oracleAnswer(ctx context.Context, e *uots.Engine, d *workload.Dataset, kind workload.Kind, s workload.Search) ([]uots.Result, error) {
	q := s.Query(d.Store.Vocab())
	var res []uots.Result
	var err error
	switch kind {
	case workload.KindWindowed:
		res, _, err = e.SearchWindowedCtx(ctx, q, uots.TimeWindow{From: workload.WindowFromS, To: workload.WindowToS})
	case workload.KindOrderAware:
		res, _, err = e.OrderAwareSearchCtx(ctx, q)
	case workload.KindDiversified:
		res, _, err = e.DiversifiedSearchCtx(ctx, q, uots.DiversifyOptions{Mu: *s.DiversifyMu})
	case workload.KindThreshold:
		res, _, err = e.ExhaustiveThresholdCtx(ctx, q, *s.Theta)
	default:
		res, _, err = e.ExhaustiveSearchCtx(ctx, q)
	}
	return res, err
}

func compare(got answer, want []uots.Result) string {
	if len(got.Results) != len(want) {
		return fmt.Sprintf("%d results, oracle has %d", len(got.Results), len(want))
	}
	for i, r := range got.Results {
		if r.Trajectory != int32(want[i].Traj) || math.Abs(r.Score-want[i].Score) > scoreTolerance {
			return fmt.Sprintf("result %d is trajectory %d score %.12f, oracle has trajectory %d score %.12f",
				i, r.Trajectory, r.Score, want[i].Traj, want[i].Score)
		}
	}
	return ""
}

func checkShape(got answer, k int) string {
	if len(got.Results) > k {
		return fmt.Sprintf("%d results for k = %d", len(got.Results), k)
	}
	for i, r := range got.Results {
		if r.Score < 0 || r.Score > 1 {
			return fmt.Sprintf("result %d has score %g outside [0,1]", i, r.Score)
		}
		if i > 0 && r.Score > got.Results[i-1].Score {
			return fmt.Sprintf("result %d scores above result %d", i, i-1)
		}
	}
	return ""
}
