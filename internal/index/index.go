// Package index is a compile-only bridge. It held a landmark pruning
// index — per-trajectory ALT interval bounds the engine tested
// candidates against before any exact distance — which showed no win at
// any measured scale and was deleted. The two symbols below remain, as
// no-ops, so that callers built against them still compile;
// core.Options.Index ignores what they return.
package index

import "uots/internal/roadnet"

// Source is the store surface NewTrajBounds and Extend accept. Both
// trajdb.Store and diskstore.Store satisfy it.
type Source interface {
	NumTrajectories() int
}

// TrajBounds carries nothing.
type TrajBounds struct{}

// NewTrajBounds returns an empty TrajBounds; it reads neither argument.
func NewTrajBounds(Source, *roadnet.Landmarks) *TrajBounds { return &TrajBounds{} }

// Extend returns b; it does not read src.
func (b *TrajBounds) Extend(src Source) *TrajBounds { return b }
