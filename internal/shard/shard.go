// Package shard scales the UOTS engine out across partitions of one
// trajectory store: every search variant runs as a scatter-gather over N
// per-shard engines on a bounded worker pool, and the per-shard
// candidates merge into a deterministic global top-k that reproduces the
// monolithic engine's answer bit for bit: the same trajectories in the
// same order with the same scores and distances. (Sharding moves which
// distances the core engine's expansion scans and which its text probes
// resolve, but both are Dijkstras rooted at the query location, so the
// bits do not move.)
//
// The design exploits the same structure the paper's pruning does. A
// shard's local k-th score can only under-estimate the global k-th (its
// candidate set is a subset of the union), so the maximum local
// threshold across shards — exchanged through an atomic
// core.SharedBound — is always a valid global pruning bar: a lagging
// shard stops expanding the moment its local upper bound falls below
// the leaders' k-th lower bound, the cross-partition bound-exchange
// idea the authors later scaled up in TS-Join. Because all pruning is
// strict (< the bar), trajectories tying the k-th score always survive,
// and the merged top-k (stable tie-break: score descending, then global
// trajectory ID ascending — the monolithic order) is exact regardless
// of exchange timing.
//
// Failure semantics are configurable per Config.Partial: a shard hitting
// a store fault (an error wrapping core.ErrStoreFault) either fails the
// whole query after cancelling its siblings (PartialFail, the default)
// or is dropped from the merge while the healthy shards' results are
// served (PartialDegrade). Context cancellation always fails the query:
// the per-shard engines poll the scatter context and abort within one
// poll interval.
//
// One scatter-gather (gatherer) serves both the in-process Executor and
// the RemoteExecutor over rpc replica groups; they differ only in their
// fleet.
package shard

import (
	"errors"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/trajdb"
)

// Errors returned by executor construction and queries.
var (
	// ErrBadShards rejects non-positive shard counts.
	ErrBadShards = errors.New("shard: shard count must be positive")
	// ErrClosed is returned for queries submitted after Close.
	ErrClosed = errors.New("shard: executor is closed")
	// ErrAllShardsFailed is wrapped around the first shard error when
	// PartialDegrade finds no healthy shard to serve from.
	ErrAllShardsFailed = errors.New("shard: every shard failed")
)

// PartialPolicy selects what a query does when one shard fails with a
// store fault while others are healthy.
type PartialPolicy int

const (
	// PartialFail fails the query on the first shard store fault,
	// cancelling the remaining shards' searches. The default.
	PartialFail PartialPolicy = iota
	// PartialDegrade drops faulted shards from the merge and serves the
	// healthy shards' results (recorded in metrics and the query trace).
	// Cancellation and validation errors still fail the query — only
	// store faults degrade.
	PartialDegrade
)

// String implements fmt.Stringer.
func (p PartialPolicy) String() string {
	switch p {
	case PartialFail:
		return "fail"
	case PartialDegrade:
		return "degrade"
	default:
		return "PartialPolicy(?)"
	}
}

// Config tunes the sharded executor. The zero value is not runnable:
// Shards must be positive.
type Config struct {
	// Shards is the number of partitions N. Clamped to the store's
	// trajectory count; shards the hash leaves empty are skipped at query
	// time.
	Shards int
	// Workers bounds concurrent per-shard searches across all in-flight
	// queries (default runtime.GOMAXPROCS(0)).
	Workers int
	// Partial is the partial-results policy (default PartialFail).
	Partial PartialPolicy
	// disableSharedBound turns off the cross-shard k-th-bound exchange
	// (results are identical either way, only pruning differs).
	// Unexported: the exchange is proven (EXPERIMENTS.md, Audit verdicts)
	// and only the in-package tests and benchmark switch it off.
	disableSharedBound bool
	// assign replaces the partition function (nil = shardOf). Unexported,
	// same standing as disableSharedBound: production has one assignment,
	// and only the in-package cross-validation swaps in hand-built skews
	// (every answer on one shard, an empty shard, one trajectory each).
	assign func(id trajdb.TrajID, n int) int
	// wrapStore, when non-nil, wraps each shard's store after
	// partitioning — the fault-injection seam of the in-package tests
	// (e.g. core.NewFaultStore on shard 2 only). Unexported, same
	// standing as assign.
	wrapStore func(shard int, s core.TrajStore) core.TrajStore
	// Metrics receives the executor's uots_shard_* instruments
	// (nil disables metrics).
	Metrics *obs.Registry
}
