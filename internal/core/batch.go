package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Algorithm names a query-processing strategy: the paper's search or one
// of the two baselines it is measured against.
type Algorithm int

const (
	// AlgoExpansion is the paper's expansion search.
	AlgoExpansion Algorithm = iota
	// AlgoExhaustive is the full-Dijkstra brute-force baseline.
	AlgoExhaustive
	// AlgoTextFirst is the textual-order baseline.
	AlgoTextFirst
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case AlgoExpansion:
		return "expansion"
	case AlgoExhaustive:
		return "exhaustive"
	case AlgoTextFirst:
		return "textfirst"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// BatchOptions configures a parallel batch run. Every query of a batch
// runs the expansion search on its own pooled expanders.
type BatchOptions struct {
	// Workers is the number of concurrent query goroutines
	// (default runtime.GOMAXPROCS(0)).
	Workers int
	// SharedExpansion is ignored. It named a batch planner that shared
	// Dijkstra frontiers between the queries of a batch, since removed
	// as a measured loss; the field stays so that callers and wire
	// peers built against it still compile and decode.
	SharedExpansion bool
}

// BatchResult is the outcome of one query in a batch.
type BatchResult struct {
	Index   int // position of the query in the input slice
	Results []Result
	Stats   SearchStats
	Err     error
}

// BatchStats aggregates a whole batch run.
type BatchStats struct {
	Queries   int
	Failed    int
	PerQuery  SearchStats   // summed per-query counters
	WallClock time.Duration // end-to-end elapsed time of the batch

	// FrontierSettles and ServedSettles are always 0: they counted the
	// removed batch planner's shared work, and stay for callers built
	// against them.
	FrontierSettles uint64
	ServedSettles   uint64
}

// SearchBatch processes the queries with a fixed pool of worker
// goroutines. Results arrive indexed by input position. A tracer
// attached to ctx (obs.ContextWithTracer) is shared by every worker:
// per-query span events interleave into one stream, which the
// obs.TraceRecorder accepts concurrently.
//
// The context cancels the whole batch: queries the scheduler never
// handed to a worker are marked with ctx.Err(), and queries already
// running observe the cancellation inside their search loops and abort
// within one poll interval. A query that completed before the
// cancellation keeps its results — scheduling is tracked explicitly per
// slot, so a legitimately-empty successful result is never reclassified
// as cancelled. SearchBatch itself always drains its workers before
// returning, so no goroutines outlive the call; its error is ctx.Err().
func (e *Engine) SearchBatch(ctx context.Context, queries []Query, opts BatchOptions) (out []BatchResult, stats BatchStats, err error) {
	// Store panics inside worker goroutines are converted to per-query
	// errors by run, which every worker calls; this guard covers the batch
	// frame itself.
	defer recoverStoreFault(nil, &err)
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	// A worker per query is the most that can ever run; the count comes
	// from the client and must not size the pool unchecked.
	opts.Workers = min(opts.Workers, len(queries))
	elapsed := stopwatch()
	out = make([]BatchResult, len(queries))
	// scheduled marks the slots handed to a worker; workers write every
	// slot they receive (run or drained), so unscheduled slots — and
	// only those — are filled in afterwards. Written and read by this
	// goroutine only.
	scheduled := make([]bool, len(queries))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				// A cancelled batch drains scheduled jobs without running
				// them, so the pool exits promptly.
				if err := ctx.Err(); err != nil {
					out[idx] = BatchResult{Index: idx, Err: err}
					continue
				}
				res, stats, err := e.run(ctx, Request{Query: queries[idx]}, AlgoExpansion)
				out[idx] = BatchResult{Index: idx, Results: res, Stats: stats, Err: err}
			}
		}()
	}
feed:
	for i := range queries {
		select {
		case jobs <- i:
			scheduled[i] = true
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	stats = finalizeBatch(out, scheduled, ctx.Err())
	stats.WallClock = elapsed()
	return out, stats, ctx.Err()
}

// finalizeBatch classifies the batch slots after the workers drain:
// slots never handed to a worker are marked with the batch's
// cancellation error; every scheduled slot is trusted as written —
// a successful result is a successful result even when it is empty and
// the batch context has since been cancelled. (The previous
// implementation inferred unscheduled slots from the zero-value shape
// `Results == nil && Err == nil && Stats == zero`, which reclassified
// any legitimately-empty completed query as cancelled.)
func finalizeBatch(out []BatchResult, scheduled []bool, ctxErr error) BatchStats {
	stats := BatchStats{Queries: len(out)}
	for i := range out {
		if !scheduled[i] {
			out[i] = BatchResult{Index: i, Err: ctxErr}
		}
		if out[i].Err != nil {
			stats.Failed++
			continue
		}
		stats.PerQuery.Add(out[i].Stats)
	}
	return stats
}
