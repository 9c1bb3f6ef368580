package core

import (
	"context"
	"errors"
	"fmt"

	"uots/internal/trajdb"
)

// TimeWindow is an optional hard departure-time filter (an extension
// beyond the paper's spatial+textual core, predating the temporal
// similarity of the authors' follow-up work): only trajectories departing
// inside the window qualify. From and To are seconds of day; a window with
// To < From wraps midnight (e.g. 22:00–02:00).
type TimeWindow struct {
	From, To float64
}

// ErrBadWindow is returned for windows outside the 24-hour domain.
var ErrBadWindow = errors.New("core: time window bounds must be in [0, 86400)")

// Validate checks the window bounds.
func (w TimeWindow) Validate() error {
	if w.From < 0 || w.From >= trajdb.SecondsPerDay || w.To < 0 || w.To >= trajdb.SecondsPerDay {
		return fmt.Errorf("%w: [%g, %g]", ErrBadWindow, w.From, w.To)
	}
	return nil
}

// Contains reports whether the instant t (seconds of day) falls inside
// the window, handling midnight wrap.
func (w TimeWindow) Contains(t float64) bool {
	if w.From <= w.To {
		return t >= w.From && t <= w.To
	}
	return t >= w.From || t <= w.To
}

// SearchWindowedCtx answers a top-k query restricted to trajectories
// whose departure time falls inside window. The filter is applied before
// scoring, so the k results are the best departures inside the window, not
// a post-filtered global top-k. Cancellation is as in SearchCtx.
func (e *Engine) SearchWindowedCtx(ctx context.Context, q Query, window TimeWindow) ([]Result, SearchStats, error) {
	return e.run(ctx, Request{Query: q, Window: &window}, AlgoExpansion)
}
