package shard

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/rpc"
)

// tracedGroup is the deterministic-trace config. Every call picks one
// replica round-robin, so replica attribution repeats exactly between
// identical runs.
func tracedGroup() func(int) rpc.GroupConfig {
	return func(int) rpc.GroupConfig {
		return rpc.GroupConfig{MaxAttempts: 3}
	}
}

// renderTrace flattens a merged trace into one comparable string,
// masking exactly the documented run-dependent values: the wall-clock
// Extra of rpc_attempt_ok / rpc_attempt_err and of the
// remote_partition bracket. Everything else — kinds, order, replica
// notes, partition ordinals, remote engine spans — must reproduce
// byte for byte.
func renderTrace(events []obs.SpanEvent) string {
	var b strings.Builder
	for _, ev := range events {
		extra := ev.Extra
		switch ev.Kind {
		case rpc.TraceAttemptOK, rpc.TraceAttemptErr, TracePartition:
			extra = -1
		}
		fmt.Fprintf(&b, "%d %s src=%d traj=%d v=%g x=%g n=%q\n",
			ev.Step, ev.Kind, ev.Source, ev.Traj, ev.Value, extra, ev.Note)
	}
	return b.String()
}

// checkRemoteTraceShape asserts the structural invariants of one merged
// cross-node trace: it opens with the scatter, closes with the merge,
// replays every partition exactly once per scatter in ascending
// partition order, and carries one remote child span per partition
// visit.
func checkRemoteTraceShape(t *testing.T, tag string, events []obs.SpanEvent, shards, scatters int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatalf("%s: empty trace", tag)
	}
	if events[0].Kind != TraceScatter {
		t.Errorf("%s: first event %q, want %q", tag, events[0].Kind, TraceScatter)
	}
	if last := events[len(events)-1].Kind; last != TraceMerge {
		t.Errorf("%s: last event %q, want %q", tag, last, TraceMerge)
	}
	counts := map[string]int{}
	var open []float64 // partition bracket stack (depth ≤ 1)
	wantNext := 0
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case TraceScatter:
			wantNext = 0
		case TracePartition:
			if len(open) != 0 {
				t.Fatalf("%s: nested %s bracket", tag, TracePartition)
			}
			if int(ev.Value) != wantNext {
				t.Errorf("%s: partition bracket %g, want %d (ascending order)", tag, ev.Value, wantNext)
			}
			open = append(open, ev.Value)
		case TracePartitionDone:
			if len(open) != 1 || open[0] != ev.Value {
				t.Fatalf("%s: unbalanced %s for partition %g", tag, TracePartitionDone, ev.Value)
			}
			open = open[:0]
			wantNext = int(ev.Value) + 1
		}
	}
	if len(open) != 0 {
		t.Errorf("%s: unclosed partition bracket", tag)
	}
	for kind, want := range map[string]int{
		TraceScatter:        scatters,
		TraceMerge:          scatters,
		TracePartition:      shards * scatters,
		TracePartitionDone:  shards * scatters,
		rpc.TraceRemoteSpan: shards * scatters,
	} {
		if counts[kind] != want {
			t.Errorf("%s: %d %s events, want %d", tag, counts[kind], kind, want)
		}
	}
	if counts[rpc.TraceAttempt] < shards*scatters {
		t.Errorf("%s: %d %s events, want >= %d", tag, counts[rpc.TraceAttempt], rpc.TraceAttempt, shards*scatters)
	}
}

// TestRemoteTraceDeterministicMerge replays an identical traced query
// and three-query batch twice against the same N×R cluster and requires
// the merged trace — four scatters, each with its client-side attempt
// ladder, partition brackets, and the shard servers' replayed engine
// spans — to reproduce byte for byte once the documented wall-clock
// Extras are masked. The bound exchange is disabled (its piggybacked
// thresholds depend on shard timing), the batch runs one worker so its
// scatters run one after the other, and a pass makes an even number of
// calls per group, so with R = 2 the round-robin cursor starts every
// pass on the same replica.
func TestRemoteTraceDeterministicMerge(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(91, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	batch := []core.Query{f.randomQuery(rng, 2, 2, 0.5, 4), f.randomQuery(rng, 2, 3, 0.3, 6), f.randomQuery(rng, 3, 2, 0.7, 3)}
	ctxBase := context.Background()

	for _, n := range []int{2, 4} {
		for _, r := range []int{1, 2} {
			t.Run(fmt.Sprintf("n=%d_r=%d", n, r), func(t *testing.T) {
				cl := startCluster(t, f.db, n, r,
					RemoteConfig{disableSharedBound: true}, tracedGroup(), nil, nil)
				run := func(pass int) string {
					rec := obs.NewTraceRecorder(4 * obs.DefaultTraceEvents) // room for four scatters
					ctx := obs.ContextWithTracer(ctxBase, rec)
					ctx = obs.ContextWithTraceID(ctx, "det-merge")
					if _, _, err := cl.re.SearchCtx(ctx, q); err != nil {
						t.Fatalf("pass %d SearchCtx: %v", pass, err)
					}
					if _, _, err := cl.re.SearchBatch(ctx, batch, core.BatchOptions{Workers: 1}); err != nil {
						t.Fatalf("pass %d SearchBatch: %v", pass, err)
					}
					events := rec.Events()
					checkRemoteTraceShape(t, fmt.Sprintf("pass %d", pass), events, n, 1+len(batch))
					return renderTrace(events)
				}
				a, b := run(1), run(2)
				if a != b {
					t.Errorf("merged trace not deterministic across runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", a, b)
				}
			})
		}
	}
}

// TestRemoteTraceConcurrentSampledQueries drives sampled queries
// through one RemoteExecutor from many goroutines at once — the
// race-detector workout for the per-partition trace buffers, the trace
// ID plumbing, and the shard servers' trace stores. Each query gets a
// private recorder, and each merged trace must still be well-formed in
// isolation.
func TestRemoteTraceConcurrentSampledQueries(t *testing.T) {
	const shards, workers = 2, 8
	f := testFixture(t)
	cl := startCluster(t, f.db, shards, 2, RemoteConfig{}, tracedGroup(), nil, nil)
	rng := rand.New(rand.NewPCG(17, 0))
	queries := make([]core.Query, workers)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 2, 2, 0.5, 5)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rec := obs.NewTraceRecorder(0)
			ctx := obs.ContextWithTracer(context.Background(), rec)
			ctx = obs.ContextWithTraceID(ctx, fmt.Sprintf("conc-%d", w))
			if _, _, err := cl.re.SearchCtx(ctx, queries[w]); err != nil {
				t.Errorf("worker %d SearchCtx: %v", w, err)
				return
			}
			checkRemoteTraceShape(t, fmt.Sprintf("worker %d", w), rec.Events(), shards, 1)
		}(w)
	}
	wg.Wait()
}
