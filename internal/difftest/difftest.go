// Package difftest holds what the differential tests compare with: the
// exhaustive oracle's ranking for a request (Expect) and the one result
// comparator (Mismatch). The shard package's harness runs it over every
// backend; the core package's oracle tests run it over the engine alone.
// It is test support: only _test.go files import it.
package difftest

import (
	"context"
	"fmt"
	"math"
	"sort"

	"uots/internal/core"
	"uots/internal/trajdb"
)

// Tol is the one float tolerance, relative. A distance a probe resolves
// sums the path from the trajectory's side, the oracle's SSSP from the
// query's, so the last bits may differ (measured at most 7.2e-16).
const Tol = 1e-12

// Expect is the oracle for req over db: the ranking every answer is
// compared with, how many of its entries the answer holds, and whether
// the answer is sorted (all but diversified). The ranking runs past k
// wherever the variant allows, so a tie run straddling rank k is whole.
// oracle is an engine over db with the options the backends share.
func Expect(ctx context.Context, oracle *core.Engine, db *trajdb.Store, req core.Request) (ranking []core.Result, k int, ordered bool, err error) {
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
	return ranking, k, req.Variant() != "diversified", err
}

// Mismatch is the one comparator. got must be the first k entries of
// ranking:
//
//	(a) got holds exactly k results;
//	(b) an ordered answer is sorted: descending score, ascending ID
//	    among bit-equal scores;
//	(c) rank by rank, IDs and Textual are equal, and Score, Spatial and
//	    every distance agree within Tol (+Inf equals only +Inf);
//	(d) except that in an ordered answer a rank may hold any trajectory
//	    of the run of ranking scores equal within Tol that contains the
//	    rank — compared with its own ranking entry, and never twice.
func Mismatch(got, ranking []core.Result, k int, ordered bool) error {
	if len(got) != k || k > len(ranking) {
		return fmt.Errorf("%d results, want %d of %d ranked", len(got), k, len(ranking))
	}
	for i := 1; ordered && i < k; i++ {
		if a, b := got[i-1], got[i]; a.Score < b.Score || a.Score == b.Score && a.Traj > b.Traj {
			return fmt.Errorf("ranks %d and %d out of order: trajectory %d (%v) before %d (%v)", i-1, i, a.Traj, a.Score, b.Traj, b.Score)
		}
	}
	pos := make(map[trajdb.TrajID]int, len(ranking))
	for i, res := range ranking {
		pos[res.Traj] = i
	}
	seen := make(map[trajdb.TrajID]bool, k)
	for i, g := range got {
		j, ok := pos[g.Traj]
		if seen[g.Traj] || !ok || j != i && !(ordered && sameRun(ranking, i, j)) {
			return fmt.Errorf("rank %d: trajectory %d (%v), want %d (%v)", i, g.Traj, g.Score, ranking[i].Traj, ranking[i].Score)
		}
		seen[g.Traj] = true
		if err := SameResult(g, ranking[j]); err != nil {
			return fmt.Errorf("rank %d: %w", i, err)
		}
	}
	return nil
}

// sameRun reports whether ranks i and j of ranking lie in one run of
// adjacent scores equal within Tol.
func sameRun(ranking []core.Result, i, j int) bool {
	for a := min(i, j); a < max(i, j); a++ {
		if !near(ranking[a].Score, ranking[a+1].Score) {
			return false
		}
	}
	return true
}

// SameResult compares one result with its oracle entry.
func SameResult(got, want core.Result) error {
	ok := got.Traj == want.Traj && got.Textual == want.Textual && near(got.Score, want.Score) &&
		near(got.Spatial, want.Spatial) && len(got.Dists) == len(want.Dists)
	for i := 0; ok && i < len(got.Dists); i++ {
		ok = near(got.Dists[i], want.Dists[i])
	}
	if !ok {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// near reports whether a and b agree within the relative tolerance.
func near(a, b float64) bool {
	return a == b || !math.IsInf(a, 0) && !math.IsInf(b, 0) && math.Abs(a-b) <= Tol*math.Max(math.Abs(a), math.Abs(b))
}
