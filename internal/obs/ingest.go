package obs

// Ingest trace event kinds, emitted by the serving layer's write path
// into the same per-request tracer the search spans use (X-Trace / slow
// recorder). They carry batch sizes and generations, never payloads.
const (
	// TraceIngestBegin opens an ingest request: Value = batch size.
	TraceIngestBegin = "ingest_begin"
	// TraceIngestCommit closes a successful ingest: Value = committed
	// trajectories, Extra = the store generation that includes them.
	TraceIngestCommit = "ingest_commit"
	// TraceIngestReject closes a failed ingest: Note = rejection reason.
	TraceIngestReject = "ingest_reject"
)

// Rejection reasons for uots_ingest_rejected_total, pinned here as the
// label's whole value set.
const (
	IngestRejectInvalid = "invalid" // failed trajectory validation
	IngestRejectBacklog = "backlog" // bounded ingest queue full (backpressure)
	IngestRejectClosed  = "closed"  // batcher draining for shutdown
)

// ingestCommitSecondsBuckets span sub-millisecond in-memory commits to
// multi-second fsync stalls on a struggling device.
var ingestCommitSecondsBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// IngestMetrics bundles the uots_ingest_* instruments describing the
// live write path: WAL appends, group commits, queue backpressure, and
// snapshot maintenance. The ingest service registers them on the server
// registry; see CONTRIBUTING.md for the family contract.
type IngestMetrics struct {
	Accepted  *Counter    // uots_ingest_accepted_trajectories_total
	Committed *Counter    // uots_ingest_committed_trajectories_total
	Rejected  *CounterVec // uots_ingest_rejected_total{reason}
	Batches   *Counter    // uots_ingest_batches_total
	Replayed  *Counter    // uots_ingest_replayed_records_total

	WALRecords *Counter // uots_ingest_wal_records_total
	WALBytes   *Counter // uots_ingest_wal_bytes_total
	WALFsyncs  *Counter // uots_ingest_wal_fsyncs_total

	QueueDepth    *Gauge     // uots_ingest_queue_depth
	Generation    *Gauge     // uots_ingest_snapshot_generation
	CommitSeconds *Histogram // uots_ingest_commit_seconds

	SnapshotRebuilds   *Gauge // uots_ingest_snapshot_rebuilds
	SnapshotExtensions *Gauge // uots_ingest_snapshot_extensions
}

// NewIngestMetrics registers the uots_ingest_* instruments on reg. A
// nil registry returns nil; every record helper on a nil receiver is a
// no-op, so callers with optional metrics need no guard.
func NewIngestMetrics(reg *Registry) *IngestMetrics {
	if reg == nil {
		return nil
	}
	return &IngestMetrics{
		Accepted: reg.Counter("uots_ingest_accepted_trajectories_total",
			"Trajectories accepted into the ingest queue."),
		Committed: reg.Counter("uots_ingest_committed_trajectories_total",
			"Trajectories durably committed and applied to the live store."),
		Rejected: reg.CounterVec("uots_ingest_rejected_total",
			"Ingest submissions rejected before queueing, by reason.", "reason"),
		Batches: reg.Counter("uots_ingest_batches_total",
			"Group commits performed (one WAL record each)."),
		Replayed: reg.Counter("uots_ingest_replayed_records_total",
			"WAL records replayed into the store at startup."),
		WALRecords: reg.Counter("uots_ingest_wal_records_total",
			"Records appended to the ingest WAL."),
		WALBytes: reg.Counter("uots_ingest_wal_bytes_total",
			"Bytes appended to the ingest WAL (headers included)."),
		WALFsyncs: reg.Counter("uots_ingest_wal_fsyncs_total",
			"fsync calls issued by the WAL writer."),
		QueueDepth: reg.Gauge("uots_ingest_queue_depth",
			"Ingest requests waiting in the bounded commit queue."),
		Generation: reg.Gauge("uots_ingest_snapshot_generation",
			"Store generation after the most recent commit."),
		CommitSeconds: reg.Histogram("uots_ingest_commit_seconds",
			"Group-commit wall time (WAL append + fsync + store apply) in seconds.",
			ingestCommitSecondsBuckets),
		SnapshotRebuilds: reg.Gauge("uots_ingest_snapshot_rebuilds",
			"Full O(live) snapshot rebuilds performed by the dynamic store."),
		SnapshotExtensions: reg.Gauge("uots_ingest_snapshot_extensions",
			"Incremental add-only snapshot extensions performed by the dynamic store."),
	}
}

// RecordCommit accumulates one group commit: trajs applied, one WAL
// record of walBytes appended, synced reporting whether an fsync was
// issued, and the store generation after the apply.
func (m *IngestMetrics) RecordCommit(trajs int, walBytes int, synced bool, gen uint64, seconds float64) {
	if m == nil {
		return
	}
	m.Batches.Inc()
	m.Committed.AddInt(trajs)
	m.WALRecords.Inc()
	m.WALBytes.AddInt(walBytes)
	if synced {
		m.WALFsyncs.Inc()
	}
	m.Generation.Set(int64(gen))
	m.CommitSeconds.Observe(seconds)
}

// RecordReject counts one pre-queue rejection.
func (m *IngestMetrics) RecordReject(reason string) {
	if m == nil {
		return
	}
	m.Rejected.With(reason).Inc()
}

// RecordAccepted counts trajectories admitted to the queue.
func (m *IngestMetrics) RecordAccepted(trajs int) {
	if m == nil {
		return
	}
	m.Accepted.AddInt(trajs)
}

// SetQueueDepth publishes the current queue depth.
func (m *IngestMetrics) SetQueueDepth(n int) {
	if m == nil {
		return
	}
	m.QueueDepth.Set(int64(n))
}

// SetSnapshotWork publishes the dynamic store's snapshot maintenance
// counters (full rebuilds vs incremental extensions).
func (m *IngestMetrics) SetSnapshotWork(rebuilds, extensions uint64) {
	if m == nil {
		return
	}
	m.SnapshotRebuilds.Set(int64(rebuilds))
	m.SnapshotExtensions.Set(int64(extensions))
}
