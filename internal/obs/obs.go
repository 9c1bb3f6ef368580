// Package obs is the repository's stdlib-only observability toolkit:
// a process-wide metric registry (counters, gauges, fixed-bucket
// histograms with atomic hot paths) encodable in the Prometheus text
// format, a search tracer that records per-query span events from the
// engine's expansion loop, and the timing helper every instrumented
// layer routes wall-clock reads through.
//
// The package deliberately depends on nothing but the standard library
// and is imported by internal/core, internal/server, and the command
// binaries; it must never import any of them back.
//
// # Determinism contract
//
// Search results must stay a pure function of (graph, store, query,
// seed), so nothing in this package may feed wall-clock time into values
// that reach scoring or pruning. Timing flows one way — through Stopwatch
// into metrics and logs. Trace events carry ordinal step numbers, not
// timestamps, so a replayed query produces a bit-identical trace. Core's
// testdata/stats.golden and shard's TestRemoteTraceDeterministicMerge pin
// both.
package obs

import "time"

// Stopwatch is the package's designated wall-clock access point, the
// observability twin of core's internal stopwatch helper: call it once
// at the start of a measured section and invoke the returned function
// for the elapsed time. Every instrumented layer (request middleware,
// scatter-gather, RPC) times through this helper, so all wall-clock
// reads sit in one place. Its readings feed metrics and logs only, never
// scores or pruning.
func Stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
