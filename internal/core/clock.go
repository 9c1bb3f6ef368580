package core

import "time"

// stopwatch is the package's only wall-clock access point. Entry points
// call it once and invoke the returned function to fill the Elapsed /
// WallClock stats fields; everything else in the package must stay a
// pure function of (graph, store, query, seed) so replayed searches
// reproduce bit-identical results. Its readings feed SearchStats
// only, never scores or pruning.
func stopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
