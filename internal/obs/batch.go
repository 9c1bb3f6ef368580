package obs

// BatchMetrics bundles the uots_batch_* instruments describing batch
// search execution and the shared-expansion batch planner (see
// core.BatchStats). The serving layer registers them on the server
// registry, fed by /batch.
//
// The planner's headline signal is ServedSettles − FrontierSettles:
// settles served to queries minus Dijkstra settles actually performed,
// i.e. the vertex expansions that cross-query frontier sharing avoided.
type BatchMetrics struct {
	Batches         *Counter // uots_batch_requests_total
	Queries         *Counter // uots_batch_queries_total
	Failed          *Counter // uots_batch_failed_queries_total
	SharedBatches   *Counter // uots_batch_shared_total
	DistinctSources *Counter // uots_batch_distinct_sources_total
	SourceRefs      *Counter // uots_batch_source_refs_total
	FrontierSettles *Counter // uots_batch_frontier_settles_total
	ServedSettles   *Counter // uots_batch_served_settles_total
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
		SharedBatches: reg.Counter("uots_batch_shared_total",
			"Batch runs executed with the shared-expansion planner enabled."),
		DistinctSources: reg.Counter("uots_batch_distinct_sources_total",
			"Distinct source vertices given a shared expansion frontier, across batches."),
		SourceRefs: reg.Counter("uots_batch_source_refs_total",
			"Per-query source references planned onto shared frontiers, across batches."),
		FrontierSettles: reg.Counter("uots_batch_frontier_settles_total",
			"Dijkstra settles shared batch frontiers actually performed."),
		ServedSettles: reg.Counter("uots_batch_served_settles_total",
			"Frontier settles served to batch queries (minus frontier settles = expansions saved by sharing)."),
	}
}

// RecordBatch accumulates one batch run's counters. The planner fields
// are plain integers rather than a core type so obs stays free of
// engine imports (core imports obs).
func (m *BatchMetrics) RecordBatch(queries, failed, distinctSources, sourceRefs int, frontierSettles, servedSettles uint64, shared bool) {
	m.Batches.Inc()
	m.Queries.AddInt(queries)
	m.Failed.AddInt(failed)
	if shared {
		m.SharedBatches.Inc()
	}
	m.DistinctSources.AddInt(distinctSources)
	m.SourceRefs.AddInt(sourceRefs)
	m.FrontierSettles.Add(frontierSettles)
	m.ServedSettles.Add(servedSettles)
}
