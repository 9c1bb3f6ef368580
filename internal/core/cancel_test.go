package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"uots/internal/obs"
)

// ctxVariant names one context-aware engine entry point for table tests.
type ctxVariant struct {
	name string
	run  func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error)
}

func ctxVariants() []ctxVariant {
	return []ctxVariant{
		{"SearchCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchCtx(ctx, q)
		}},
		{"SearchThresholdCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchThresholdCtx(ctx, q, 0.4)
		}},
		{"ExhaustiveSearchCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.ExhaustiveSearchCtx(ctx, q)
		}},
		{"ExhaustiveThresholdCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.ExhaustiveThresholdCtx(ctx, q, 0.4)
		}},
		{"TextFirstSearchCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.TextFirstSearchCtx(ctx, q)
		}},
		{"OrderAwareSearchCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.OrderAwareSearchCtx(ctx, q)
		}},
		{"SearchWindowedCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.SearchWindowedCtx(ctx, q, TimeWindow{From: 0, To: 24*3600 - 1})
		}},
		{"DiversifiedSearchCtx", func(e *Engine, ctx context.Context, q Query) ([]Result, SearchStats, error) {
			return e.DiversifiedSearchCtx(ctx, q, DiversifyOptions{})
		}},
	}
}

// TestPreCancelledContext verifies every entry point observes an
// already-cancelled context before doing meaningful work: the error is
// context.Canceled and no results leak out.
func TestPreCancelledContext(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(71, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, v := range ctxVariants() {
		res, _, err := v.run(e, ctx, q)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", v.name, err)
		}
		if res != nil {
			t.Errorf("%s: returned %d results on a cancelled context", v.name, len(res))
		}
	}
}

// TestExpiredDeadline verifies an already-expired deadline surfaces as
// context.DeadlineExceeded.
func TestExpiredDeadline(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(72, 0))
	q := f.randomQuery(rng, 2, 3, 0.5, 5)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, v := range ctxVariants() {
		if _, _, err := v.run(e, ctx, q); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v, want context.DeadlineExceeded", v.name, err)
		}
	}
}

// TestMidSearchCancellation cancels a context while a search is running
// and verifies the search returns promptly with ctx.Err() and partial
// stats rather than running to completion.
func TestMidSearchCancellation(t *testing.T) {
	f := testFixture(t)
	// A latency-injecting store slows every Keywords call so the search is
	// guaranteed to still be inside its loops when the cancel fires.
	slow := NewFaultStore(f.db, FaultConfig{Latency: 200 * time.Microsecond})
	e, err := NewEngine(slow, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(74, 0))
	q := f.randomQuery(rng, 3, 4, 0.5, 5)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := e.ExhaustiveSearchCtx(ctx, q)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled search returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("search did not observe cancellation within 5s")
	}
}

// TestBatchCancellation cancels a running batch and verifies (a) the call
// returns promptly with ctx.Err(), (b) every entry carries an error or a
// finished result, and (c) no worker goroutines outlive the call.
func TestBatchCancellation(t *testing.T) {
	f := testFixture(t)
	slow := NewFaultStore(f.db, FaultConfig{Latency: 100 * time.Microsecond})
	e, err := NewEngine(slow, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	// City-wide queries (four scattered places, spatial-only, a deep k)
	// keep every expansion running long past the 3 ms cancel.
	rng := rand.New(rand.NewPCG(75, 0))
	queries := make([]Query, 64)
	for i := range queries {
		queries[i] = f.randomQuery(rng, 4, 3, 1, 50)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out, _, err := e.SearchBatch(ctx, queries, BatchOptions{Workers: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled batch took %s to return", elapsed)
	}
	var cancelled int
	for i, o := range out {
		if o.Err == nil && o.Results == nil {
			t.Errorf("entry %d: neither error nor results after cancellation", i)
		}
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no batch entry recorded context.Canceled; cancel fired too late to test anything")
	}

	// The worker pool must be fully drained: goroutine count returns to
	// (roughly) the pre-call level once the runtime settles.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before batch, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationBoundsWork verifies a pre-cancelled context keeps the
// expansion search from settling more than one poll interval of work.
func TestCancellationBoundsWork(t *testing.T) {
	e, f := newTestEngine(t, Options{})
	rng := rand.New(rand.NewPCG(76, 0))
	textual := f.randomQuery(rng, 3, 4, 0.5, 5)
	// With no keywords there is no text probe to poll the context, so only
	// the expansion loop's own poll can stop this search.
	spatial := textual
	spatial.Keywords, spatial.Lambda = nil, 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []struct {
		name string
		q    Query
	}{{"spatio-textual", textual}, {"spatial-only", spatial}} {
		_, stats, err := e.SearchCtx(ctx, c.q)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}
		if stats.SettledVertices > cancelPollEvery {
			t.Errorf("%s: cancelled search settled %d vertices, want ≤ %d", c.name, stats.SettledVertices, cancelPollEvery)
		}
	}

	// Cancelled inside a probe: a tracer cancels on the first probe, whose
	// query-rooted searches may reach the whole graph, so only the probe
	// loop's own poll stops it in time. Until the first probe every settle
	// is an expansion step, so the event's Step is the settle count there.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	probe := &cancelOnProbe{cancel: cancel, at: -1}
	_, stats, err := e.SearchCtx(obs.ContextWithTracer(ctx, probe), f.randomQuery(rand.New(rand.NewPCG(77, 0)), 4, 4, 0.3, 10))
	if probe.at < 0 {
		t.Fatal("in a probe: no probe fired")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("in a probe: err = %v, want context.Canceled", err)
	}
	if after := stats.SettledVertices - probe.at; after > cancelPollEvery {
		t.Errorf("in a probe: %d vertices settled after the cancel, want ≤ %d", after, cancelPollEvery)
	}

	// Cancelled inside the order-aware rerank: a tracer cancels as round
	// 0's retrieval terminates, so only the rerank's own poll can stop the
	// query-rooted search of the trips it scores. Replaying round 0 — the
	// top-K′ retrieval, K′ = max(16, 4k), then the rerank on the same
	// search — gives the settles before the cancel, and shows the rerank
	// has more than one poll interval of work to do.
	oq := f.randomQuery(rand.New(rand.NewPCG(84, 0)), 4, 2, 0.5, 4)
	nq, err := oq.normalize(e.g)
	if err != nil {
		t.Fatal(err)
	}
	uq := nq
	uq.K = max(16, 4*nq.K)
	scr := acquireScratch(e.g, e.db.NumTrajectories(), nq.Locations)
	unordered, retrieval, err := e.candidates(context.Background(), uq, 0, nil, AlgoExpansion, scr)
	if err != nil {
		t.Fatal(err)
	}
	var rerank SearchStats
	for _, r := range unordered {
		if _, err := e.orderAwareResult(scr, nq, r.Traj, make([]float64, len(nq.Locations)), canceller{}, &rerank); err != nil {
			t.Fatal(err)
		}
	}
	if rerank.SettledVertices <= cancelPollEvery {
		t.Fatalf("in the rerank: round 0's rerank settles %d vertices, want > %d", rerank.SettledVertices, cancelPollEvery)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	term := &cancelOnTerminate{cancel: cancel}
	_, stats, err = e.OrderAwareSearchCtx(obs.ContextWithTracer(ctx, term), oq)
	if !term.fired {
		t.Fatal("in the rerank: the retrieval never terminated")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("in the rerank: err = %v, want context.Canceled", err)
	}
	if after := stats.SettledVertices - retrieval.SettledVertices; after > cancelPollEvery {
		t.Errorf("in the rerank: %d vertices settled after the cancel, want ≤ %d", after, cancelPollEvery)
	}
}

// cancelOnTerminate is a tracer that cancels its search when the first
// expansion terminates.
type cancelOnTerminate struct {
	cancel context.CancelFunc
	fired  bool
}

func (c *cancelOnTerminate) Emit(ev obs.SpanEvent) {
	if ev.Kind == TraceTerminate && !c.fired {
		c.fired = true
		c.cancel()
	}
}

// cancelOnProbe is a tracer that cancels its search at the first probe
// and records that event's expansion step.
type cancelOnProbe struct {
	cancel context.CancelFunc
	at     int
}

func (c *cancelOnProbe) Emit(ev obs.SpanEvent) {
	if ev.Kind == TraceProbe && c.at < 0 {
		c.at = ev.Step
		c.cancel()
	}
}
