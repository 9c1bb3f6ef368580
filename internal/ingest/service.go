package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/trajdb"
)

// ErrInvalid tags an ingest submission rejected before queueing:
// malformed samples, an empty batch, or an oversized one. The serving
// layer maps it to 400.
var ErrInvalid = errors.New("ingest: invalid trajectory")

// Config configures the ingest service.
type Config struct {
	// WALPath is the log file. Required.
	WALPath string
	// Fsync selects the durability/throughput trade-off (default
	// FsyncAlways).
	Fsync FsyncPolicy
	// SyncInterval spaces fsyncs under FsyncInterval (default 50ms).
	SyncInterval time.Duration
	// QueueDepth bounds the commit queue; a full queue rejects with
	// ErrBacklog (default 256 requests).
	QueueDepth int
	// MaxBatch caps trajectories folded into one group commit (default
	// 128).
	MaxBatch int
	// Engine configures the query engines built over snapshots. The
	// zero value selects the paper configuration.
	Engine core.Options
	// Metrics receives the uots_ingest_* instruments; nil disables.
	Metrics *obs.IngestMetrics
	// Hooks injects I/O faults for tests.
	Hooks Hooks
}

// Service is the live write path over one DynamicStore: WAL-durable
// batched ingest plus MVCC snapshot reads. Reads and writes never block
// each other — Engine hands out an engine pinned to an immutable
// snapshot, and ingest only ever builds new snapshots.
type Service struct {
	store    *trajdb.DynamicStore
	wal      *WAL
	batcher  *batcher
	cfg      Config
	recovery RecoveryInfo

	accepted        atomic.Uint64 // trajectories admitted to the queue
	rejectedInvalid atomic.Uint64
	rejectedBacklog atomic.Uint64
	rejectedClosed  atomic.Uint64

	emu       sync.Mutex // engine cache, keyed by snapshot generation
	engine    *core.Engine
	engineGen uint64

	closeOnce sync.Once
	closeErr  error
}

// Open replays the WAL at cfg.WALPath into store and starts the commit
// pipeline. The store must carry a vocabulary (WAL keywords are interned
// on apply). Replay failures follow OpenWAL's contract: torn tails are
// truncated and reported via Recovery, corruption refuses to serve.
func Open(store *trajdb.DynamicStore, cfg Config) (*Service, error) {
	if cfg.WALPath == "" {
		return nil, errors.New("ingest: Config.WALPath is required")
	}
	if store.Vocab() == nil {
		return nil, errors.New("ingest: store must have a vocabulary")
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 128
	}
	s := &Service{store: store, cfg: cfg}
	wopts := WALOptions{Fsync: cfg.Fsync, SyncInterval: cfg.SyncInterval, Hooks: cfg.Hooks}
	wal, info, err := OpenWAL(cfg.WALPath, wopts, func(rec Record) error {
		_, err := applyRecord(store, rec)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.wal, s.recovery = wal, info
	if m := cfg.Metrics; m != nil {
		m.Replayed.AddInt(info.Records)
		m.SetSnapshotWork(store.SnapshotStats())
	}
	s.batcher = newBatcher(wal, store, cfg.QueueDepth, cfg.MaxBatch, cfg.Metrics)
	return s, nil
}

// Recovery reports what the boot-time WAL replay found.
func (s *Service) Recovery() RecoveryInfo { return s.recovery }

// Store returns the dynamic store the service ingests into.
func (s *Service) Store() *trajdb.DynamicStore { return s.store }

// Ingest validates trajs, enqueues them for group commit and waits for
// durability, returning the assigned handles and the store generation
// that includes them. Validation failures return an error wrapping
// ErrInvalid without consuming queue space; a full queue returns
// ErrBacklog; a draining service ErrClosed. Cancellation of ctx abandons
// the wait, not the commit.
func (s *Service) Ingest(ctx context.Context, trajs []TrajRecord) ([]trajdb.ExternalID, uint64, error) {
	if len(trajs) == 0 {
		s.rejectedInvalid.Add(1)
		s.cfg.Metrics.RecordReject(obs.IngestRejectInvalid)
		return nil, 0, fmt.Errorf("%w: empty batch", ErrInvalid)
	}
	g := s.store.Graph()
	for i, t := range trajs {
		if err := trajdb.ValidateSamples(g, t.Samples); err != nil {
			s.rejectedInvalid.Add(1)
			s.cfg.Metrics.RecordReject(obs.IngestRejectInvalid)
			return nil, 0, fmt.Errorf("%w: trajectory %d: %v", ErrInvalid, i, err)
		}
	}
	s.accepted.Add(uint64(len(trajs)))
	s.cfg.Metrics.RecordAccepted(len(trajs))
	ids, gen, err := s.batcher.enqueue(ctx, trajs)
	switch {
	case errors.Is(err, ErrBacklog):
		s.rejectedBacklog.Add(1)
		s.cfg.Metrics.RecordReject(obs.IngestRejectBacklog)
	case errors.Is(err, ErrClosed):
		s.rejectedClosed.Add(1)
		s.cfg.Metrics.RecordReject(obs.IngestRejectClosed)
	}
	return ids, gen, err
}

// Engine returns a query engine pinned to the current snapshot
// generation. The engine (and the immutable snapshot under it) stays
// valid forever — concurrent ingest builds new snapshots without
// touching old ones — so a request that captured an engine keeps a
// consistent view for its whole lifetime. Engines are cached per
// generation: between commits every query shares one engine, and a
// commit costs one incremental snapshot extension on the next read.
func (s *Service) Engine() (*core.Engine, uint64, error) {
	s.emu.Lock()
	defer s.emu.Unlock()
	snap, _, gen := s.store.SnapshotGen()
	if s.engine != nil && s.engineGen == gen {
		return s.engine, gen, nil
	}
	e, err := core.NewEngine(snap, s.cfg.Engine)
	if err != nil {
		return nil, gen, err
	}
	s.engine, s.engineGen = e, gen
	return e, gen, nil
}

// Stats is a point-in-time snapshot of the write path, served at
// /ingest/stats.
type Stats struct {
	Live            int    `json:"live"`
	Generation      uint64 `json:"generation"`
	QueueDepth      int    `json:"queue_depth"`
	Accepted        uint64 `json:"accepted"`
	Committed       uint64 `json:"committed"`
	Batches         uint64 `json:"batches"`
	RejectedInvalid uint64 `json:"rejected_invalid"`
	RejectedBacklog uint64 `json:"rejected_backlog"`
	RejectedClosed  uint64 `json:"rejected_closed"`
	WALBytes        uint64 `json:"wal_bytes"`
	WALSize         int64  `json:"wal_size"`
	WALFsyncs       uint64 `json:"wal_fsyncs"`
	ReplayedRecords int    `json:"replayed_records"`
	ReplayedTrajs   int    `json:"replayed_trajs"`
	TruncatedBytes  int64  `json:"truncated_bytes"`
	Rebuilds        uint64 `json:"snapshot_rebuilds"`
	Extensions      uint64 `json:"snapshot_extensions"`
}

// Stats reports the current write-path counters. Ingest lag is visible
// as accepted − committed plus the queue depth.
func (s *Service) Stats() Stats {
	rebuilds, extensions := s.store.SnapshotStats()
	return Stats{
		Live:            s.store.Len(),
		Generation:      s.store.Generation(),
		QueueDepth:      len(s.batcher.queue),
		Accepted:        s.accepted.Load(),
		Committed:       s.batcher.committed.Load(),
		Batches:         s.batcher.batches.Load(),
		RejectedInvalid: s.rejectedInvalid.Load(),
		RejectedBacklog: s.rejectedBacklog.Load(),
		RejectedClosed:  s.rejectedClosed.Load(),
		WALBytes:        s.batcher.walBytes.Load(),
		WALSize:         s.wal.Size(),
		WALFsyncs:       s.batcher.walFsyncs.Load(),
		ReplayedRecords: s.recovery.Records,
		ReplayedTrajs:   s.recovery.Trajs,
		TruncatedBytes:  s.recovery.TruncatedBytes,
		Rebuilds:        rebuilds,
		Extensions:      extensions,
	}
}

// Close drains the commit queue (every already-accepted batch commits),
// syncs and closes the WAL. Idempotent; later Ingest calls return
// ErrClosed.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.batcher.close()
		s.closeErr = s.wal.Close()
	})
	return s.closeErr
}
