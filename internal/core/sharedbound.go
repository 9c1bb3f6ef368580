package core

import (
	"context"
	"math"
	"sync/atomic"
)

// SharedBound is a monotone, concurrency-safe lower bound on the k-th
// best score of a top-k search that has been partitioned across several
// engines (internal/shard's scatter-gather executor). Every partition
// publishes its local k-th threshold through Raise as soon as its local
// top-k fills; because each partition's candidate set is a subset of the
// union, its local k-th score can only under-estimate the global one, so
// the maximum over partitions is always a valid global pruning bar.
//
// The engine consumes the bound inside bar(): a candidate whose upper
// bound falls strictly below it can never enter the merged global top-k,
// so a lagging shard prunes against the leaders' progress instead of
// waiting for its own top-k to fill. Raise is a CAS max, so the value
// only grows; the exchange being racy affects only *when* a prune
// happens, never *whether* a result survives — ties at the bar survive
// the strict-< prune, keeping sharded results byte-identical to the
// monolithic engine.
//
// All participants must run the same query with the same K. Mixing K
// values (e.g. a diversified search's enlarged pool beside its k picks)
// would let a small-K threshold over-prune a large-K participant, so the
// shard executor only attaches a SharedBound to same-K scatters
// (Request.SharesBound).
//
// The zero value is ready to use and carries no bound.
type SharedBound struct {
	bits atomic.Uint64 // Float64bits of the bound; 0 = no bound published
}

// Raise lifts the bound to v if v improves it. Non-positive and NaN
// values carry no information and are ignored (scores live in [0, 1]).
func (b *SharedBound) Raise(v float64) {
	if !(v > 0) {
		return
	}
	newBits := math.Float64bits(v)
	for {
		old := b.bits.Load()
		if old != 0 && math.Float64frombits(old) >= v {
			return
		}
		if b.bits.CompareAndSwap(old, newBits) {
			return
		}
	}
}

// Load returns the current bound; ok is false while nothing has been
// published yet.
func (b *SharedBound) Load() (v float64, ok bool) {
	bits := b.bits.Load()
	if bits == 0 {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

type sharedBoundKey struct{}

// ContextWithSharedBound attaches a cross-partition pruning bound to the
// context. Engines reached through this context publish their local
// top-k thresholds to b and prune against the best published value.
func ContextWithSharedBound(ctx context.Context, b *SharedBound) context.Context {
	return context.WithValue(ctx, sharedBoundKey{}, b)
}

// sharedBoundFrom extracts the shared bound, tolerating nil contexts the
// same way newCanceller does.
func sharedBoundFrom(ctx context.Context) *SharedBound {
	if ctx == nil {
		return nil
	}
	b, _ := ctx.Value(sharedBoundKey{}).(*SharedBound)
	return b
}
