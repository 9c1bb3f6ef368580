package difftest

import (
	"context"
	"fmt"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/trajdb"
)

// Prune is one TracePrune of a search: the trip, the bound it was pruned
// on and the bar the bound was tested against.
type Prune struct {
	Traj    trajdb.TrajID
	UB, Bar float64
}

// PruneChecker is a tracer for one expansion search that holds its
// prunes to the exact scores. A prune that follows a TraceProbe of the
// same trip is the probe's; every other is the rescan sweep's. A search
// runs on one goroutine, so a PruneChecker takes no lock.
type PruneChecker struct {
	probing       int64 // trip of the open TraceProbe, -1 when none
	probes, sweep []Prune
}

// NewPruneChecker returns a checker with no prune seen.
func NewPruneChecker() *PruneChecker { return &PruneChecker{probing: -1} }

// Emit records the probes and prunes of the search.
func (p *PruneChecker) Emit(ev obs.SpanEvent) {
	switch ev.Kind {
	case core.TraceProbe:
		p.probing = ev.Traj
	case core.TraceComplete:
		if ev.Traj == p.probing {
			p.probing = -1
		}
	case core.TracePrune:
		pr := Prune{Traj: trajdb.TrajID(ev.Traj), UB: ev.Value, Bar: ev.Extra}
		if ev.Traj == p.probing {
			p.probes, p.probing = append(p.probes, pr), -1
		} else {
			p.sweep = append(p.sweep, pr)
		}
	}
}

// Probes returns the probes' prunes whose bound is not below its bar or
// is below the trip's exact score (exact[id]).
func (p *PruneChecker) Probes(exact []float64) []Prune { return wrong(p.probes, exact) }

// Sweep returns the same for the sweep's prunes.
func (p *PruneChecker) Sweep(exact []float64) []Prune { return wrong(p.sweep, exact) }

func wrong(prunes []Prune, exact []float64) []Prune {
	var bad []Prune
	for _, pr := range prunes {
		if !(pr.UB < pr.Bar) || exact[pr.Traj] > pr.UB {
			bad = append(bad, pr)
		}
	}
	return bad
}

// ExactScores returns the exhaustive oracle's score of every trajectory
// of db for q (its unordered similarity), indexed by ID.
func ExactScores(ctx context.Context, oracle *core.Engine, db *trajdb.Store, q core.Query) ([]float64, error) {
	q.K = db.NumTrajectories()
	all, _, err := oracle.ExhaustiveSearchCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(all) != q.K {
		return nil, fmt.Errorf("the oracle ranked %d of %d trips", len(all), q.K)
	}
	exact := make([]float64, q.K)
	for _, r := range all {
		exact[r.Traj] = r.Score
	}
	return exact, nil
}
