package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/rpc"
)

// ErrRemoteDiversify rejects a remote diversified search without a
// local global engine: the MMR selection needs route overlaps over the
// full store, which only the router's own engine can compute.
var ErrRemoteDiversify = errors.New("shard: remote diversified search needs a local global engine (RemoteConfig.Global)")

// RemoteConfig tunes a RemoteExecutor.
type RemoteConfig struct {
	// Global is the router's own monolithic engine over the full
	// (unpartitioned) dataset. Required for DiversifiedSearchCtx, whose
	// selection stage needs the whole store; every other variant works
	// without it. Under the topology contract the router loads the same
	// dataset as the shard servers, so it normally has one anyway.
	Global *core.Engine
	// Partial is the fault policy: an exhausted replica group surfaces
	// as a shard store fault, so PartialFail fails the query and
	// PartialDegrade serves the healthy partitions.
	Partial PartialPolicy
	// disableSharedBound turns off the cross-shard k-th-bound piggyback
	// exchange (results are identical either way; see core.SharedBound).
	// Unexported like Config's: only in-package tests set it.
	disableSharedBound bool
	// Metrics receives the executor's uots_shard_* instruments (the
	// rpc groups carry their own uots_rpc_* metrics). nil disables.
	Metrics *obs.Registry
}

// RemoteExecutor runs every search variant as a scatter-gather over
// remote shard servers, one rpc.Group (replica set) per partition. It
// is the network twin of Executor — the same gatherer over a different
// fleet: the same resolve precedence, the same deterministic merge, and
// byte-identical results to a monolithic core.Engine over the
// unpartitioned store — retries and failover can reorder
// *work*, never *answers*. It satisfies the server.SearchBackend seam,
// so a router wires it through server.Config.Searcher exactly like a
// local Executor.
//
// Close is idempotent and safe against in-flight queries (it aborts
// their scatters and waits for them to drain); queries issued after
// Close fail with ErrClosed. Close also closes the executor's
// rpc.Groups — the executor owns them.
type RemoteExecutor struct {
	gatherer
	groups []*rpc.Group

	closeCtx    context.Context
	closeCancel context.CancelFunc
	closeOnce   sync.Once
	closed      atomic.Bool
	mu          sync.Mutex     // orders enter's admission against Close's closed flag
	inflight    sync.WaitGroup // admitted queries; Close waits for them
}

// NewRemoteExecutor builds a remote executor over one replica group per
// partition, in partition order (groups[i] serves partition i of
// len(groups)), and binds each group to that identity: from the next
// health probe on, a replica reporting another partition is refused
// instead of merged. The executor takes ownership of the groups: its
// Close closes them.
//
//uots:allow ctxflow -- the close context is the executor's lifetime, minted at construction; queries thread their own caller contexts.
func NewRemoteExecutor(groups []*rpc.Group, cfg RemoteConfig) (*RemoteExecutor, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("%w: got 0 partitions", ErrBadShards)
	}
	m := newMetrics(cfg.Metrics)
	re := &RemoteExecutor{groups: groups}
	re.gatherer = gatherer{
		fleet:    re,
		counters: make([]shardCounters, len(groups)),
		partial:  cfg.Partial,
		noBound:  cfg.disableSharedBound,
		global:   cfg.Global,
		metrics:  m,
	}
	for i, g := range groups {
		re.counters[i] = m.forShard(i)
		// The layout is fixed here, so this is where each group learns
		// which partition its replicas must report (see rpc.Group.Bind).
		g.Bind(i, len(groups))
	}
	re.closeCtx, re.closeCancel = context.WithCancel(context.Background())
	return re, nil
}

// Close aborts in-flight scatters, waits for them to drain, and closes
// the replica groups. Idempotent and safe to call concurrently with
// queries: a query racing Close fails with ErrClosed (unless its own
// context died first, which takes precedence).
func (re *RemoteExecutor) Close() {
	re.closeOnce.Do(func() {
		re.mu.Lock()
		re.closed.Store(true)
		re.mu.Unlock()
		re.closeCancel()
		re.inflight.Wait() // no query is admitted after closed is set
		for _, g := range re.groups {
			g.Close()
		}
	})
}

// enter implements fleet: it admits one query, counted in inflight
// until the caller runs the returned release. The closed check and the
// count share one short critical section, so Close, which sets closed
// under the same mutex, waits for exactly the queries admitted before
// it. No lock is held while a query runs, so a caller that nests
// admissions is refused by a pending Close instead of blocking on it.
func (re *RemoteExecutor) enter() (func(), error) {
	re.mu.Lock()
	defer re.mu.Unlock()
	if re.closed.Load() {
		return nil, ErrClosed
	}
	re.inflight.Add(1)
	return re.inflight.Done, nil
}

// failure implements fleet: it rewrites the cancellation injected by
// Close into ErrClosed. The caller's own context error always wins
// (resolve already guarantees that), so only a close-induced
// cancellation is rewritten.
func (re *RemoteExecutor) failure(ctx context.Context, err error) error {
	if err != nil && ctx.Err() == nil && re.closed.Load() && errors.Is(err, context.Canceled) {
		return ErrClosed
	}
	return err
}

// partitionTraces buffers each partition's trace privately while the
// scatter is in flight. The partition goroutines run concurrently, so
// letting them emit into the caller's tracer directly would interleave
// events nondeterministically; instead each partition records into its
// own bounded buffer and replay copies the buffers into the parent in
// partition index order after the scatter joins, each inside a
// TracePartition / TracePartitionDone bracket carrying the partition's
// wall-clock. A nil *partitionTraces (untraced query) is a no-op.
type partitionTraces struct {
	parent  obs.Tracer
	bufs    []*obs.TraceRecorder
	elapsed []time.Duration
}

// newPartitionTraces returns the buffer set for a traced scatter over n
// partitions, or nil when the caller's context carries no tracer.
func newPartitionTraces(ctx context.Context, n int) *partitionTraces {
	parent := obs.TracerFromContext(ctx)
	if parent == nil {
		return nil
	}
	pt := &partitionTraces{
		parent:  parent,
		bufs:    make([]*obs.TraceRecorder, n),
		elapsed: make([]time.Duration, n),
	}
	for i := range pt.bufs {
		pt.bufs[i] = obs.NewTraceRecorder(0)
	}
	return pt
}

// wrap attaches partition i's private buffer to ctx and starts its
// wall-clock; the returned func stops the clock. The trace ID stays on
// the context, so the rpc group still stamps it on the wire.
func (pt *partitionTraces) wrap(ctx context.Context, i int) (context.Context, func()) {
	if pt == nil {
		return ctx, func() {}
	}
	sw := obs.Stopwatch()
	return obs.ContextWithTracer(ctx, pt.bufs[i]), func() { pt.elapsed[i] = sw() }
}

// replay copies the buffers into the parent trace in partition index
// order. Called after the scatter's WaitGroup joins, so the buffers are
// quiescent.
func (pt *partitionTraces) replay() {
	if pt == nil {
		return
	}
	for i, buf := range pt.bufs {
		pt.parent.Emit(obs.SpanEvent{Kind: TracePartition, Source: -1, Traj: -1,
			Value: float64(i), Extra: float64(pt.elapsed[i]) / float64(time.Millisecond)})
		for _, ev := range buf.Events() {
			pt.parent.Emit(ev)
		}
		pt.parent.Emit(obs.SpanEvent{Kind: TracePartitionDone, Source: -1, Traj: -1,
			Value: float64(i), Extra: float64(buf.Dropped())})
	}
}

// each implements fleet. Network calls park on the wire, so each
// partition gets a goroutine — no worker pool — with its own trace
// buffer on the context. Close cancels every in-flight scatter.
func (re *RemoteExecutor) each(ctx context.Context, task func(ctx context.Context, i int)) []error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(re.closeCtx, cancel)
	defer stop()

	pt := newPartitionTraces(ctx, len(re.groups))
	var wg sync.WaitGroup
	for i := range re.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, done := pt.wrap(ctx, i)
			defer done()
			task(pctx, i)
		}()
	}
	wg.Wait()
	pt.replay()
	return nil
}

// search implements fleet: the rpc group piggybacks bound on the request
// and folds the shard's answer back into it.
func (re *RemoteExecutor) search(ctx context.Context, i int, req core.Request, bound *core.SharedBound) ([]core.Result, core.SearchStats, error) {
	resp, err := re.groups[i].Search(ctx, rpc.SearchRequest{Request: req}, bound)
	return resp.Results, resp.Stats, err
}
