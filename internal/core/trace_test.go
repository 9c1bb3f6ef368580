package core

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"uots/internal/obs"
)

// kindSet summarizes which event kinds appear in a trace.
func kindSet(events []obs.SpanEvent) map[string]int {
	m := make(map[string]int)
	for _, ev := range events {
		m[ev.Kind]++
	}
	return m
}

// lastTerminate returns the final terminate event, failing if absent.
func lastTerminate(t *testing.T, events []obs.SpanEvent) obs.SpanEvent {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
	last := events[len(events)-1]
	if last.Kind != TraceTerminate {
		t.Fatalf("last event kind = %q, want %q (events: %d)", last.Kind, TraceTerminate, len(events))
	}
	return last
}

func TestTracedSearchRecordsEvents(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(31, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 5)

	rec := obs.NewTraceRecorder(0)
	ctx := obs.ContextWithTracer(context.Background(), rec)
	res, stats, err := e.SearchCtx(ctx, q)
	if err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	events := rec.Events()
	if events[0].Kind != TraceBegin {
		t.Fatalf("first event kind = %q, want %q", events[0].Kind, TraceBegin)
	}
	if got, want := events[0].Value, float64(len(q.Locations)); got != want {
		t.Errorf("begin Value = %g, want |O| = %g", got, want)
	}
	kinds := kindSet(events)
	for _, k := range []string{TraceSourcePick, TraceAdmit, TraceComplete} {
		if kinds[k] == 0 {
			t.Errorf("no %q events in trace (kinds: %v)", k, kinds)
		}
	}
	term := lastTerminate(t, events)
	if term.Note != TermBound && term.Note != TermExhausted {
		t.Errorf("termination cause = %q, want %q or %q", term.Note, TermBound, TermExhausted)
	}
	if term.Note == TermBound != stats.EarlyTerminated {
		t.Errorf("termination cause %q disagrees with stats.EarlyTerminated=%v", term.Note, stats.EarlyTerminated)
	}
	if kinds[TraceComplete] != stats.Candidates {
		t.Errorf("complete events = %d, want stats.Candidates = %d", kinds[TraceComplete], stats.Candidates)
	}

	// Source picks are coalesced: no two consecutive picks of one source.
	lastPick := -1
	for _, ev := range events {
		switch ev.Kind {
		case TraceSourcePick:
			if ev.Source == lastPick {
				t.Fatalf("consecutive source_pick of source %d not coalesced", ev.Source)
			}
			lastPick = ev.Source
		case TraceSourceDone:
			if ev.Source == lastPick {
				lastPick = -1
			}
		}
	}
}

// TestTraceDeterministic: replaying the same query yields a bit-identical
// event stream (events carry step ordinals, never wall-clock time).
func TestTraceDeterministic(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(32, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 5)

	runOnce := func() []obs.SpanEvent {
		rec := obs.NewTraceRecorder(0)
		ctx := obs.ContextWithTracer(context.Background(), rec)
		if _, _, err := e.SearchCtx(ctx, q); err != nil {
			t.Fatalf("SearchCtx: %v", err)
		}
		return rec.Events()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatalf("replay produced %d events, first run %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs between runs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTraceCancelledQuery(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(33, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 5)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := obs.NewTraceRecorder(0)
	if _, _, err := e.SearchCtx(obs.ContextWithTracer(ctx, rec), q); err == nil {
		t.Fatal("cancelled search returned nil error")
	}
	term := lastTerminate(t, rec.Events())
	if term.Note != TermCancelled {
		t.Errorf("termination cause = %q, want %q", term.Note, TermCancelled)
	}
}

func TestTraceTextOnlyPath(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(34, 0))
	q := f.randomQuery(rng, 2, 4, 0.0, 5) // λ=0 → text-only fast path

	rec := obs.NewTraceRecorder(0)
	if _, _, err := e.SearchCtx(obs.ContextWithTracer(context.Background(), rec), q); err != nil {
		t.Fatalf("SearchCtx: %v", err)
	}
	term := lastTerminate(t, rec.Events())
	if term.Note != TermTextOnly {
		t.Errorf("termination cause = %q, want %q", term.Note, TermTextOnly)
	}
}

// TestTraceOrderAwareRerank pins the one-pass order-aware search: one
// retrieval (one TraceBegin) per request, at λ 0.5 and at λ 0, and one
// TraceRerank per ordered scoring, whose ordered score never exceeds the
// unordered one it was admitted with.
func TestTraceOrderAwareRerank(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(35, 0))
	for _, lambda := range []float64{0.5, 0} {
		q := f.randomQuery(rng, 3, 4, lambda, 3)
		rec := obs.NewTraceRecorder(0)
		res, _, err := e.OrderAwareSearchCtx(obs.ContextWithTracer(context.Background(), rec), q)
		if err != nil {
			t.Fatalf("λ %g: OrderAwareSearchCtx: %v", lambda, err)
		}
		kinds := kindSet(rec.Events())
		if kinds[TraceBegin] != 1 {
			t.Errorf("λ %g: %d %q events, want one retrieval", lambda, kinds[TraceBegin], TraceBegin)
		}
		if kinds[TraceRerank] < len(res) {
			t.Errorf("λ %g: %d %q events for %d results (kinds: %v)", lambda, kinds[TraceRerank], TraceRerank, len(res), kinds)
		}
		for _, ev := range rec.Events() {
			if ev.Kind == TraceRerank && !(ev.Value <= ev.Extra) {
				t.Errorf("λ %g: trip %d: ordered score %g above its unordered score %g", lambda, ev.Traj, ev.Value, ev.Extra)
			}
		}
	}
}

func TestTraceDiversifiedPicks(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(36, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 4)

	rec := obs.NewTraceRecorder(0)
	res, _, err := e.DiversifiedSearchCtx(obs.ContextWithTracer(context.Background(), rec), q, DiversifyOptions{})
	if err != nil {
		t.Fatalf("DiversifiedSearchCtx: %v", err)
	}
	kinds := kindSet(rec.Events())
	if kinds[TraceSelect] != len(res) {
		t.Errorf("mmr_pick events = %d, want one per result = %d", kinds[TraceSelect], len(res))
	}
}

// TestDisabledTracerAddsZeroAllocs proves the un-traced hot path performs
// no tracer-related allocations: a search under a value-carrying context
// without a tracer allocates exactly as much as one under
// context.Background().
func TestDisabledTracerAddsZeroAllocs(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(37, 0))
	q := f.randomQuery(rng, 2, 3, 0.5, 5)

	type ctxKey struct{}
	plain := context.Background()
	valued := context.WithValue(context.Background(), ctxKey{}, "payload")

	// The fewest allocations of any run: a search that finds its graph's
	// pool empty (the race detector drops pooled items at random, and a
	// GC empties the pool) allocates a fresh scratch, which says nothing
	// about the tracer lookup.
	measure := func(ctx context.Context) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		fewest := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for range 20 {
			runtime.ReadMemStats(&before)
			if _, _, err := e.SearchCtx(ctx, q); err != nil {
				t.Fatalf("SearchCtx: %v", err)
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	base := measure(plain)
	got := measure(valued)
	if got > base {
		t.Errorf("disabled tracer lookup allocates: %v allocs/op with a value ctx, %v with Background", got, base)
	}
}

func BenchmarkSearchCtxTracer(b *testing.B) {
	f := testFixture(b)
	e, err := NewEngine(f.db, Options{})
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(38, 0))
	q := f.randomQuery(rng, 2, 3, 0.5, 5)

	b.Run("disabled", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := e.SearchCtx(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec := obs.NewTraceRecorder(0)
			ctx := obs.ContextWithTracer(context.Background(), rec)
			if _, _, err := e.SearchCtx(ctx, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRescanGapFollowsActiveSet reads the rescan schedule off the trace:
// after each bound refresh the next one comes max(relabelEvery,
// ⌈|active|/rescanDivisor⌉) expansion steps later, |active| being the
// candidates the refresh kept (admitted, neither completed nor pruned).
// The small cadences and divisors make both sides of the max occur on
// this 400-trip world: gaps stretched past relabelEvery by a large active
// set, and gaps held at relabelEvery by its floor.
func TestRescanGapFollowsActiveSet(t *testing.T) {
	for _, c := range []struct{ relabel, divisor int }{{8, 4}, {16, 4}, {32, 4}} {
		e, f := newTestEngine(t, Options{relabelEvery: c.relabel, rescanDivisor: c.divisor})
		rng := rand.New(rand.NewPCG(1250, 0))
		stretched, floored := 0, 0
		for qi := range 6 {
			rec := obs.NewTraceRecorder(0)
			q := f.randomQuery(rng, 2+qi%3, 2, 0.7, 10)
			if _, _, err := e.SearchCtx(obs.ContextWithTracer(context.Background(), rec), q); err != nil {
				t.Fatal(err)
			}
			active, prevStep, share := 0, -1, 0
			for _, ev := range rec.Events() {
				switch ev.Kind {
				case TraceAdmit:
					active++
				case TraceComplete, TracePrune:
					active--
				case TraceBound:
					if prevStep >= 0 {
						if want := max(c.relabel, share); ev.Step-prevStep != want {
							t.Errorf("relabelEvery %d, divisor %d, query %d: rescan at step %d, %d steps after the last, want %d",
								c.relabel, c.divisor, qi, ev.Step, ev.Step-prevStep, want)
						}
						if share > c.relabel {
							stretched++
						} else if share < c.relabel {
							floored++
						}
					}
					prevStep, share = ev.Step, (active+c.divisor-1)/c.divisor
				}
			}
		}
		if stretched == 0 || floored == 0 {
			t.Errorf("relabelEvery %d, divisor %d: %d stretched and %d floored gaps; the test needs both", c.relabel, c.divisor, stretched, floored)
		}
	}
}
