package obs

// BatchMetrics bundles the uots_batch_* instruments describing batch
// search execution (see core.BatchStats). The serving layer registers
// them on the server registry, fed by /batch.
type BatchMetrics struct {
	Batches *Counter // uots_batch_requests_total
	Queries *Counter // uots_batch_queries_total
	Failed  *Counter // uots_batch_failed_queries_total
}

// NewBatchMetrics registers the uots_batch_* instruments on reg.
func NewBatchMetrics(reg *Registry) *BatchMetrics {
	return &BatchMetrics{
		Batches: reg.Counter("uots_batch_requests_total",
			"Batch search runs executed."),
		Queries: reg.Counter("uots_batch_queries_total",
			"Queries submitted through batch runs."),
		Failed: reg.Counter("uots_batch_failed_queries_total",
			"Batch queries that finished with a per-query error."),
	}
}

// RecordBatch accumulates one batch run's counters. They are plain
// integers rather than a core type so obs stays free of engine imports
// (core imports obs).
func (m *BatchMetrics) RecordBatch(queries, failed int) {
	m.Batches.Inc()
	m.Queries.AddInt(queries)
	m.Failed.AddInt(failed)
}
