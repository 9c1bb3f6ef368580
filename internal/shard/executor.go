package shard

import (
	"context"
	"fmt"

	"uots/internal/core"
	"uots/internal/trajdb"
)

// shardHandle is one partition: an engine over the shard-local store and
// the shard-local → global trajectory ID mapping (ascending, see
// shardIDs). engine is nil for empty shards.
type shardHandle struct {
	engine  *core.Engine
	globals []trajdb.TrajID
}

// remap rewrites shard-local trajectory IDs to global ones in place.
func (h *shardHandle) remap(results []core.Result) {
	for j := range results {
		results[j].Traj = h.globals[results[j].Traj]
	}
}

// Executor runs every search variant as a scatter-gather over the shards
// of one store (see gatherer for the methods). Results are byte-identical
// to a monolithic core.Engine over the same store (see the package
// comment for why). An Executor is immutable over one store snapshot and
// safe for concurrent use.
type Executor struct {
	gatherer
	shards []shardHandle
	pool   *workerPool
}

// NewExecutor partitions db into cfg.Shards shards and builds the
// per-shard engines. The shard count is clamped to the store's
// trajectory count. opts configures every engine (global and per-shard)
// identically. db must not be mutated afterwards.
func NewExecutor(db core.TrajStore, opts core.Options, cfg Config) (ex *Executor, err error) {
	defer recoverBuildFault(&err)
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBadShards, cfg.Shards)
	}
	// The global engine validates opts and the store once for everyone,
	// and serves the merge-side work (diversity selection) that needs
	// global trajectory IDs.
	global, err := core.NewEngine(db, opts)
	if err != nil {
		return nil, err
	}

	n := cfg.Shards
	if t := db.NumTrajectories(); n > t {
		n = t
	}
	m := newMetrics(cfg.Metrics)
	shards := make([]shardHandle, n)
	counters := make([]shardCounters, n)
	for s := range shards {
		counters[s] = m.forShard(s)
		// An empty shard keeps a nil engine and is skipped at query time.
		h := &shards[s]
		if h.engine, h.globals, err = buildShard(db, opts, n, s, cfg.assign, cfg.wrapStore); err != nil {
			return nil, err
		}
	}
	// The pool starts last, so no failed build has workers to stop.
	ex = &Executor{shards: shards, pool: newWorkerPool(cfg.Workers)}
	ex.gatherer = gatherer{
		fleet:    ex,
		counters: counters,
		partial:  cfg.Partial,
		noBound:  cfg.disableSharedBound,
		global:   global,
		metrics:  m,
	}
	return ex, nil
}

// recoverBuildFault converts a *trajdb.StoreError panic escaping
// executor construction (the shard rebuild reads the source store) into
// an error wrapping core.ErrStoreFault, mirroring the engine entry
// points' guard.
func recoverBuildFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	se, ok := r.(*trajdb.StoreError)
	if !ok {
		panic(r)
	}
	*err = fmt.Errorf("%w: %w", core.ErrStoreFault, se)
}

// Close stops the executor's workers after in-flight shard searches
// finish. It is idempotent — repeated and concurrent Close calls are
// safe (the pool shutdown is once-guarded and every call waits for the
// drain) — and safe against in-flight queries: a query racing Close
// either completes normally or fails with ErrClosed. Queries submitted
// after Close fail with ErrClosed.
func (ex *Executor) Close() { ex.pool.close() }

// enter implements fleet: a closed executor serves nothing.
func (ex *Executor) enter() (func(), error) {
	select {
	case <-ex.pool.quit:
		return nil, ErrClosed
	default:
		return func() {}, nil
	}
}

// each implements fleet on the worker pool, which bounds the shard
// searches running at once across every in-flight query.
func (ex *Executor) each(ctx context.Context, task func(ctx context.Context, i int)) []error {
	var unstarted []error
	done := make(chan struct{}, len(ex.shards))
	submitted := 0
	for i := range ex.shards {
		if ex.shards[i].engine == nil {
			continue
		}
		if ex.pool.submit(ctx, func() { task(ctx, i); done <- struct{}{} }) {
			submitted++
			continue
		}
		// The scatter context died (or the pool closed) before a worker
		// freed up; the task never ran.
		err := ctx.Err()
		if err == nil {
			err = ErrClosed
		}
		if unstarted == nil {
			unstarted = make([]error, len(ex.shards))
		}
		unstarted[i] = err
	}
	for ; submitted > 0; submitted-- {
		<-done
	}
	return unstarted
}

// search implements fleet: shard i's engine runs req, publishing to and
// pruning against bound.
func (ex *Executor) search(ctx context.Context, i int, req core.Request, bound *core.SharedBound) ([]core.Result, core.SearchStats, error) {
	if bound != nil {
		ctx = core.ContextWithSharedBound(ctx, bound)
	}
	h := &ex.shards[i]
	results, stats, err := req.Run(ctx, h.engine)
	h.remap(results)
	return results, stats, err
}

// failure implements fleet: in-process errors are final.
func (ex *Executor) failure(_ context.Context, err error) error { return err }
