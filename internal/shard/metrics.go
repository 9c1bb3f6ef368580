package shard

import (
	"strconv"

	"uots/internal/core"
	"uots/internal/obs"
)

// metrics are the executor's uots_shard_* instruments. A nil *metrics
// (no registry configured) disables everything; every method is
// nil-receiver-safe so call sites stay unconditional.
type metrics struct {
	queries  *obs.CounterVec // per variant
	degraded *obs.Counter
	searches *obs.CounterVec // per shard
	visited  *obs.CounterVec
	settled  *obs.CounterVec
	xprunes  *obs.CounterVec
	errors   *obs.CounterVec
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		queries: reg.CounterVec("uots_shard_queries_total",
			"Sharded scatter-gather queries executed, by search variant.", "variant"),
		degraded: reg.Counter("uots_shard_degraded_queries_total",
			"Queries served from a subset of shards after store faults (PartialDegrade)."),
		searches: reg.CounterVec("uots_shard_searches_total",
			"Per-shard search tasks executed.", "shard"),
		visited: reg.CounterVec("uots_shard_visited_trajectories_total",
			"Trajectories visited per shard across all scatters.", "shard"),
		settled: reg.CounterVec("uots_shard_settled_vertices_total",
			"Dijkstra-settled vertices per shard across all scatters.", "shard"),
		xprunes: reg.CounterVec("uots_shard_cross_prunes_total",
			"Candidates pruned by the cross-shard k-th-bound exchange, per shard.", "shard"),
		errors: reg.CounterVec("uots_shard_errors_total",
			"Per-shard search failures (store faults and cancellations).", "shard"),
	}
}

// shardCounters are one shard's pre-resolved counter series, looked up
// once at executor construction so the per-query path does no label
// resolution.
type shardCounters struct {
	searches *obs.Counter
	visited  *obs.Counter
	settled  *obs.Counter
	xprunes  *obs.Counter
	errors   *obs.Counter
}

func (m *metrics) forShard(i int) shardCounters {
	if m == nil {
		return shardCounters{}
	}
	label := strconv.Itoa(i)
	return shardCounters{
		searches: m.searches.With(label),
		visited:  m.visited.With(label),
		settled:  m.settled.With(label),
		xprunes:  m.xprunes.With(label),
		errors:   m.errors.With(label),
	}
}

func (c shardCounters) record(stats core.SearchStats, err error) {
	if c.searches == nil {
		return
	}
	c.searches.Inc()
	c.visited.AddInt(stats.VisitedTrajectories)
	c.settled.AddInt(stats.SettledVertices)
	c.xprunes.AddInt(stats.SharedBoundPrunes)
	if err != nil {
		c.errors.Inc()
	}
}

func (m *metrics) recordQuery(variant string) {
	if m == nil {
		return
	}
	m.queries.With(variant).Inc()
}

func (m *metrics) recordDegraded(n int) {
	if m == nil || n == 0 {
		return
	}
	m.degraded.Inc()
}
