package ingest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"uots/internal/obs"
	"uots/internal/trajdb"
)

// ErrBacklog is returned by Ingest when the bounded commit queue is
// full. It is the write path's backpressure signal: the serving layer
// maps it to 429 through the same overload code the admission semaphore
// uses, so clients see one consistent "slow down" regardless of which
// side saturated.
var ErrBacklog = errors.New("ingest: commit queue full")

// ErrClosed is returned once the service has begun draining for
// shutdown: queued batches still commit, new ones are refused.
var ErrClosed = errors.New("ingest: service closed")

// addReq is one Ingest call waiting for its group commit.
type addReq struct {
	trajs []TrajRecord
	done  chan addResult // buffered(1): the committer never blocks on an abandoned waiter
}

// addResult is the commit outcome delivered to a waiter.
type addResult struct {
	ids []trajdb.ExternalID
	gen uint64
	err error
}

// batcher is the group-commit core: requests queue on a bounded channel,
// a single committer goroutine drains them greedily, writes one WAL
// record per group, fsyncs per policy, applies the batch to the store
// and then acks every waiter. Batching amortizes the fsync — the
// dominant cost under FsyncAlways — across every trajectory that arrived
// while the previous commit was in flight.
type batcher struct {
	wal      *WAL
	store    *trajdb.DynamicStore
	maxBatch int
	metrics  *obs.IngestMetrics

	queue chan addReq
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	// counters surfaced by Service.Stats, independent of the metrics
	// registry so stats work unregistered.
	committed atomic.Uint64 // trajectories applied
	batches   atomic.Uint64 // group commits (== WAL records appended)
	walBytes  atomic.Uint64
	walFsyncs atomic.Uint64
}

// newBatcher starts the committer goroutine (joined by close).
func newBatcher(wal *WAL, store *trajdb.DynamicStore, queueDepth, maxBatch int, m *obs.IngestMetrics) *batcher {
	b := &batcher{
		wal:      wal,
		store:    store,
		maxBatch: maxBatch,
		metrics:  m,
		queue:    make(chan addReq, queueDepth),
		quit:     make(chan struct{}),
	}
	b.wg.Add(1)
	go b.committer()
	return b
}

// enqueue submits trajs and waits for the group commit that includes
// them, returning the assigned handles and the store generation after
// the commit. ErrBacklog reports a full queue (nothing was enqueued);
// ErrClosed a draining batcher. If ctx is done first the commit still
// completes — only the ack is abandoned.
func (b *batcher) enqueue(ctx context.Context, trajs []TrajRecord) ([]trajdb.ExternalID, uint64, error) {
	req := addReq{trajs: trajs, done: make(chan addResult, 1)}
	if err := b.tryQueue(req); err != nil {
		return nil, 0, err
	}
	b.metrics.SetQueueDepth(len(b.queue))
	select {
	case res := <-req.done:
		return res.ids, res.gen, res.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// tryQueue performs the closed-check and the non-blocking send under
// one read lock, so no request can slip into the queue after close has
// drained it: close flips closed under the write lock, which waits out
// every in-flight send.
func (b *batcher) tryQueue(req addReq) error {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	select {
	case b.queue <- req:
		return nil
	default:
		return ErrBacklog
	}
}

// committer is the single writer: it owns the WAL append path and the
// store mutation path. Lifetime-scoped by quit; joined via wg by close.
func (b *batcher) committer() {
	defer b.wg.Done()
	for {
		select {
		case <-b.quit:
			b.drain()
			return
		case req := <-b.queue:
			b.commit(b.gather(req))
		}
	}
}

// gather greedily folds queued requests into the group until the batch
// reaches maxBatch trajectories or the queue momentarily empties.
func (b *batcher) gather(first addReq) []addReq {
	batch := []addReq{first}
	total := len(first.trajs)
	for total < b.maxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
			total += len(req.trajs)
		default:
			return batch
		}
	}
	return batch
}

// drain commits everything already queued at shutdown. No new requests
// can arrive: close flipped the closed flag before signalling quit.
func (b *batcher) drain() {
	for {
		select {
		case req := <-b.queue:
			b.commit(b.gather(req))
		default:
			return
		}
	}
}

// commit performs one group commit: WAL first (durability), then the
// store apply — one mutation, one generation — then the acks. A WAL
// failure fails every waiter in the group and applies nothing — the
// store never runs ahead of the log.
func (b *batcher) commit(batch []addReq) {
	start := time.Now()
	var rec Record
	for _, r := range batch {
		rec.Trajs = append(rec.Trajs, r.trajs...)
	}
	n, synced, err := b.wal.Append(rec)
	var ids []trajdb.ExternalID
	if err == nil {
		// Ingest validated these trajectories before queueing, so a
		// refusal here is an internal invariant breach; like a WAL
		// failure, it fails the whole group.
		ids, err = applyRecord(b.store, rec)
	}
	if err != nil {
		for _, r := range batch {
			r.done <- addResult{err: err}
		}
		return
	}
	gen := b.store.Generation()
	b.committed.Add(uint64(len(ids)))
	b.batches.Add(1)
	b.walBytes.Add(uint64(n))
	if synced {
		b.walFsyncs.Add(1)
	}
	b.metrics.RecordCommit(len(ids), n, synced, gen, time.Since(start).Seconds())
	b.metrics.SetQueueDepth(len(b.queue))
	b.metrics.SetSnapshotWork(b.store.SnapshotStats())
	for _, r := range batch {
		r.done <- addResult{ids: ids[:len(r.trajs):len(r.trajs)], gen: gen}
		ids = ids[len(r.trajs):]
	}
}

// applyRecord adds the trajectories of one WAL record — a group being
// committed, or one replayed at boot — to store as a single mutation:
// one generation per record, never a snapshot holding part of one.
func applyRecord(store *trajdb.DynamicStore, rec Record) ([]trajdb.ExternalID, error) {
	return store.AddGroup(len(rec.Trajs), func(i int) ([]trajdb.Sample, []string) {
		return rec.Trajs[i].Samples, rec.Trajs[i].Keywords
	})
}

// close stops admission, commits the backlog and joins the committer.
func (b *batcher) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	b.wg.Wait()
}
