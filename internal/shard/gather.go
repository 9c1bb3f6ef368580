package shard

import (
	"context"
	"errors"
	"fmt"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/pqueue"
)

// Trace event kinds emitted by the scatter-gather (alongside the
// per-shard engines' core.Trace* events, whose trajectory IDs are
// shard-local). Scatter-level events are emitted at gather time in shard
// index order, so a traced query replays deterministically even though
// the shards themselves finish in any order.
const (
	// TraceScatter opens a scatter: Value = shards scattered, Note = the
	// search variant.
	TraceScatter = "shard_scatter"
	// TraceShardDone records one shard's completion: Value = shard index,
	// Extra = local result count, Note = "err" when the shard failed.
	TraceShardDone = "shard_done"
	// TraceMerge closes a scatter: Value = merged result count, Extra =
	// candidates considered across shards.
	TraceMerge = "shard_merge"
	// TraceDegraded records a shard dropped from the merge under
	// PartialDegrade: Value = shard index.
	TraceDegraded = "shard_degraded"
	// TracePartition opens one partition's remote replay (RemoteExecutor
	// only): the events until the matching TracePartitionDone — attempts,
	// retries, and the shard server's own span — were buffered by
	// partition Value's replica-group call and are replayed in partition
	// index order after the scatter joins. Extra = the partition's
	// wall-clock milliseconds, the per-hop latency attribution
	// (run-dependent; mask it to compare traces across runs).
	TracePartition = "remote_partition"
	// TracePartitionDone closes a partition replay: Value = partition
	// index, Extra = events the partition's buffer dropped over its cap.
	TracePartitionDone = "remote_partition_done"
)

// fleet is the partitions behind a gatherer — everything the in-process
// Executor and the RemoteExecutor do differently. Partition results
// carry global trajectory IDs.
type fleet interface {
	// enter admits one query for its whole lifetime; leave ends it.
	enter() (leave func(), err error)
	// each runs task once per non-empty partition, concurrently, and
	// returns when every started task has finished. A non-nil unstarted[i]
	// is why partition i's task never ran.
	each(ctx context.Context, task func(ctx context.Context, i int)) (unstarted []error)
	search(ctx context.Context, i int, req core.Request, bound *core.SharedBound) ([]core.Result, core.SearchStats, error)
	// failure rewrites a query's error on the way out; ctx is the
	// caller's own.
	failure(ctx context.Context, err error) error
}

// gatherer is the one scatter-gather both executors embed: it plans a
// core.Request (what each partition runs, whether a SharedBound rides
// along, how the partial answers merge), fans it out over its fleet,
// resolves the outcomes under the partial-results policy and merges.
// The exported *Ctx methods are adapters onto do; they exist because
// server.SearchBackend (and benchmark/layers behind it) names them.
type gatherer struct {
	fleet    fleet
	counters []shardCounters // one per partition
	partial  PartialPolicy
	noBound  bool
	global   *core.Engine // runs the diversity selection; may be nil (RemoteConfig.Global)
	metrics  *metrics
}

// NumShards returns the partition count.
func (g *gatherer) NumShards() int { return len(g.counters) }

// SearchCtx answers a top-k query: the partitions' local top-k lists
// merge into the global top-k, with the bound exchange on.
func (g *gatherer) SearchCtx(ctx context.Context, q core.Query) ([]core.Result, core.SearchStats, error) {
	return g.do(ctx, core.Request{Query: q})
}

// SearchThresholdCtx answers a score-threshold query: every partition
// returns all locally qualifying trajectories and the merge is a
// re-sorted concatenation.
func (g *gatherer) SearchThresholdCtx(ctx context.Context, q core.Query, theta float64) ([]core.Result, core.SearchStats, error) {
	return g.do(ctx, core.Request{Query: q, Theta: &theta})
}

// SearchWindowedCtx answers a departure-time-windowed top-k query. The
// window filter depends only on each trajectory, so it is partition-local.
func (g *gatherer) SearchWindowedCtx(ctx context.Context, q core.Query, window core.TimeWindow) ([]core.Result, core.SearchStats, error) {
	return g.do(ctx, core.Request{Query: q, Window: &window})
}

// OrderAwareSearchCtx answers an order-aware top-k query. Every globally
// top-k trajectory is in its own partition's order-aware top-k (the
// selection lemma), so merging the local lists is exact.
func (g *gatherer) OrderAwareSearchCtx(ctx context.Context, q core.Query) ([]core.Result, core.SearchStats, error) {
	return g.do(ctx, core.Request{Query: q, OrderAware: true})
}

// DiversifiedSearchCtx answers a diversity-re-ranked top-k query: the
// partitions scatter the enlarged relevance pool as a plain search, the
// pools merge into the global pool, and the global engine runs the exact
// monolithic MMR selection over it.
func (g *gatherer) DiversifiedSearchCtx(ctx context.Context, q core.Query, opts core.DiversifyOptions) ([]core.Result, core.SearchStats, error) {
	return g.do(ctx, core.Request{Query: q, Diversify: &opts})
}

// begin records the query metric and emits the scatter trace event.
func (g *gatherer) begin(ctx context.Context, variant string) obs.Tracer {
	g.metrics.recordQuery(variant)
	trace := obs.TracerFromContext(ctx)
	if trace != nil {
		trace.Emit(obs.SpanEvent{Kind: TraceScatter, Source: -1, Traj: -1,
			Value: float64(len(g.counters)), Note: variant})
	}
	return trace
}

// do answers one request.
func (g *gatherer) do(ctx context.Context, req core.Request) ([]core.Result, core.SearchStats, error) {
	elapsed := obs.Stopwatch()
	if err := req.Validate(); err != nil {
		return nil, core.SearchStats{}, err
	}
	leave, err := g.fleet.enter()
	if err != nil {
		return nil, core.SearchStats{}, err
	}
	defer leave()

	// The plan: what every partition runs and how many results the merge
	// keeps. A diversified request scatters as a plain search for the
	// enlarged pool (the same pool K everywhere) and selects afterwards.
	part, k := req, req.Query.K
	var div core.DiversifyOptions
	if req.Diversify != nil {
		if g.global == nil {
			return nil, core.SearchStats{}, ErrRemoteDiversify
		}
		// The pool is sized from K, so K is clamped to the store first,
		// exactly as the monolithic engine plans it.
		req.Query.K = min(req.Query.K, g.global.Store().NumTrajectories())
		part, k, div = req.Pool()
	}
	var bound *core.SharedBound
	if part.SharesBound() && !g.noBound {
		bound = &core.SharedBound{}
	}

	trace := g.begin(ctx, req.Variant())
	out := g.scatter(ctx, part, bound)
	use, stats, err := g.resolve(ctx, out, trace)
	if err != nil {
		stats.Elapsed = elapsed()
		return nil, stats, g.fleet.failure(ctx, err)
	}
	results, considered := merge(out, use, part.Query.K, part.Theta != nil)
	if req.Diversify != nil {
		// Selection runs on the global engine: the merged pool carries
		// global trajectory IDs and route overlaps need the full store.
		if results, err = g.global.SelectDiverseCtx(ctx, results, k, div); err != nil {
			stats.Elapsed = elapsed()
			return nil, stats, err
		}
	}
	if trace != nil {
		trace.Emit(obs.SpanEvent{Kind: TraceMerge, Source: -1, Traj: -1,
			Value: float64(len(results)), Extra: float64(considered)})
	}
	stats.Elapsed = elapsed()
	return results, stats, nil
}

// partOut is one partition's scatter outcome. ran is false only for
// empty partitions.
type partOut struct {
	val   []core.Result
	stats core.SearchStats
	err   error
	ran   bool
}

// scatter runs req on every partition, publishing to and pruning
// against bound, and waits for them all. Under PartialFail the first
// partition error cancels the siblings' context, so they abort within
// one poll interval.
func (g *gatherer) scatter(ctx context.Context, req core.Request, bound *core.SharedBound) []partOut {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]partOut, len(g.counters))
	unstarted := g.fleet.each(sctx, func(ctx context.Context, i int) {
		val, stats, err := g.fleet.search(ctx, i, req, bound)
		out[i] = partOut{val: val, stats: stats, err: err, ran: true}
		g.counters[i].record(stats, err)
		if err != nil && g.partial == PartialFail {
			cancel()
		}
	})
	for i, err := range unstarted {
		if err != nil {
			out[i] = partOut{err: err, ran: true}
		}
	}
	return out
}

// resolve turns a gathered scatter into the indices of partitions whose
// results enter the merge, the summed work stats, and the query error.
// Errors resolve in a fixed precedence so concurrent failures stay
// deterministic: the caller's own cancellation first, then the
// lowest-index partition error that is not a secondary cancellation,
// with PartialDegrade store faults dropped (not failed) unless every
// partition faulted. trace may be nil.
func (g *gatherer) resolve(ctx context.Context, out []partOut, trace obs.Tracer) (use []int, stats core.SearchStats, err error) {
	var firstErr, firstNonCancel, firstFault error
	degraded := 0
	for i := range out {
		o := &out[i]
		if !o.ran {
			continue
		}
		stats.Add(o.stats)
		if o.stats.EarlyTerminated {
			stats.EarlyTerminated = true
		}
		if trace != nil {
			note := ""
			if o.err != nil {
				note = "err"
			}
			trace.Emit(obs.SpanEvent{Kind: TraceShardDone, Source: -1, Traj: -1,
				Value: float64(i), Extra: float64(len(o.val)), Note: note})
		}
		if o.err == nil {
			use = append(use, i)
			continue
		}
		if g.partial == PartialDegrade && errors.Is(o.err, core.ErrStoreFault) {
			if firstFault == nil {
				firstFault = o.err
			}
			degraded++
			if trace != nil {
				trace.Emit(obs.SpanEvent{Kind: TraceDegraded, Source: -1, Traj: -1, Value: float64(i)})
			}
			continue
		}
		if firstErr == nil {
			firstErr = o.err
		}
		if firstNonCancel == nil && !errors.Is(o.err, context.Canceled) {
			firstNonCancel = o.err
		}
	}
	// The caller's own cancellation (deadline or cancel) outranks
	// whatever the partitions reported — a monolithic engine would have
	// returned exactly this error.
	if cerr := ctx.Err(); cerr != nil {
		return nil, stats, cerr
	}
	if firstNonCancel != nil {
		return nil, stats, firstNonCancel
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	if degraded > 0 && len(use) == 0 {
		return nil, stats, fmt.Errorf("%w: %w", ErrAllShardsFailed, firstFault)
	}
	g.metrics.recordDegraded(degraded)
	return use, stats, nil
}

// merge folds the usable partitions' result lists into the answer and
// counts the candidates considered: the best k, or with all (threshold
// searches return every qualifying trajectory) every result. The order
// — score descending, then global ID ascending — is core's, so the
// merged list is the monolithic list.
func merge(out []partOut, use []int, k int, all bool) ([]core.Result, int) {
	considered := 0
	for _, i := range use {
		considered += len(out[i].val)
	}
	if all || k > considered {
		k = considered // also bounds an unbounded client k by the store
	}
	if k < 1 {
		k = 1 // the engine's default
	}
	top := pqueue.NewTopK[core.Result](k)
	for _, i := range use {
		for _, r := range out[i].val {
			top.Offer(r.Score, int64(r.Traj), r)
		}
	}
	return top.Results(), considered
}

// SearchBatch mirrors core.Engine.SearchBatch over the partitions: a
// batch is its queries, and each one is an ordinary scatter (see
// SearchCtx), with the bound exchange and the partial-results policy.
// Per-query errors surface in the per-slot Err like the monolithic
// batch; the returned error is ctx.Err(), matching its contract.
func (g *gatherer) SearchBatch(ctx context.Context, queries []core.Query, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats, error) {
	// A closed fleet refuses the batch as a whole. The admission is
	// released before the queries run, because each query's scatter takes
	// its own: a remote fleet admits under a read lock that Close drains
	// with the write lock, and a nested read lock deadlocks once a writer
	// is pending.
	leave, err := g.fleet.enter()
	if err != nil {
		return nil, core.BatchStats{}, err
	}
	leave()
	return core.RunBatch(ctx, queries, opts, g.SearchCtx)
}
