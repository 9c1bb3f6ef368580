// Package difftest holds what the differential tests compare with: the
// exhaustive oracle's ranking for a request (Expect) and the one result
// comparator (Mismatch), which allows no float tolerance: every backend
// must reproduce the oracle bit for bit. The shard package's harness
// runs it over every backend; the core package's oracle tests run it
// over the engine alone. It is test support: only _test.go files import
// it.
package difftest

import (
	"context"
	"fmt"
	"reflect"
	"sort"

	"uots/internal/core"
	"uots/internal/trajdb"
)

// Expect is the oracle for req over db: the ranking every answer is
// compared with, and how many of its entries the answer holds. The
// ranking runs past k wherever the variant allows, so a tie run
// straddling rank k is whole. oracle is an engine over db with the
// options the backends share.
func Expect(ctx context.Context, oracle *core.Engine, db *trajdb.Store, req core.Request) (ranking []core.Result, k int, err error) {
	q, n := req.Query, db.NumTrajectories()
	all := q
	all.K = n
	switch req.Variant() {
	case "threshold":
		ranking, _, err = oracle.ExhaustiveThresholdCtx(ctx, q, *req.Theta)
		k = len(ranking)
	case "windowed":
		ranking, _, err = oracle.ExhaustiveSearchCtx(ctx, all)
		kept := ranking[:0]
		for _, res := range ranking {
			if req.Window.Contains(db.Traj(res.Traj).Start()) {
				kept = append(kept, res)
			}
		}
		ranking, k = kept, min(q.K, len(kept))
	case "orderaware":
		ranking = make([]core.Result, n)
		for id := 0; id < n && err == nil; id++ {
			ranking[id], err = oracle.OrderAwareEvaluate(q, trajdb.TrajID(id))
		}
		sort.Slice(ranking, func(i, j int) bool {
			a, b := ranking[i], ranking[j]
			return a.Score > b.Score || a.Score == b.Score && a.Traj < b.Traj
		})
		k = min(q.K, n)
	case "diversified": // no oracle: the engine's own selection is the reference
		ranking, _, err = req.Run(ctx, oracle)
		k = len(ranking)
	default:
		ranking, _, err = oracle.ExhaustiveSearchCtx(ctx, all)
		k = min(q.K, n)
	}
	return ranking, k, err
}

// Mismatch is the one comparator: got must equal the first k entries of
// ranking under reflect.DeepEqual — the same trajectories in the same
// order, every score and distance bit for bit. The engine and the oracle
// both take every distance from a Dijkstra rooted at the query location
// and fold it with one expression, so no tolerance is owed, and a tie at
// rank k goes to the smaller ID in both.
func Mismatch(got, ranking []core.Result, k int) error {
	if len(got) != k || k > len(ranking) {
		return fmt.Errorf("%d results, want %d of %d ranked", len(got), k, len(ranking))
	}
	for i, g := range got {
		if err := SameResult(g, ranking[i]); err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// SameResult compares one result with its oracle entry.
func SameResult(got, want core.Result) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}
