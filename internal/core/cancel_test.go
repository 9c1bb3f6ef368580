package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/trajdb"
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

	// Cancelled inside an ordered scoring: a tracer cancels at the
	// order-aware search's first completion, whose ordered scoring steps
	// every location's run until it has settled every vertex of the trip,
	// so only the scoring's own poll can stop it in time. Before the first
	// probe every settle is an expansion step, and the completion comes in
	// the scan of step Step, so Step+1 vertices are settled before the
	// cancel. A fresh search for the same trip settles at least as many
	// vertices as the runs hold after its scoring, which shows the scoring
	// has more than one poll interval of work to do.
	oq := f.randomQuery(rand.New(rand.NewPCG(84, 0)), 4, 2, 0.5, 4)
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	first := &cancelOnComplete{cancel: cancel, at: -1}
	_, stats, err = e.OrderAwareSearchCtx(obs.ContextWithTracer(ctx, first), oq)
	if first.at < 0 || first.probed {
		t.Fatalf("in an ordered scoring: first completion at step %d, after a probe: %v", first.at, first.probed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("in an ordered scoring: err = %v, want context.Canceled", err)
	}
	before := first.at + 1
	if after := stats.SettledVertices - before; after > cancelPollEvery {
		t.Errorf("in an ordered scoring: %d vertices settled after the cancel, want ≤ %d", after, cancelPollEvery)
	}
	nq, err := oq.normalize(e.g)
	if err != nil {
		t.Fatal(err)
	}
	var fresh SearchStats
	scr := &scratch{goal: roadnet.NewGoalSearch(e.g, nq.Locations)}
	if _, err := e.orderAwareResult(scr, nq, first.traj, make([]float64, len(nq.Locations)), canceller{}, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.SettledVertices-before <= cancelPollEvery {
		t.Fatalf("in an ordered scoring: the scoring of trip %d settles at most %d vertices, want > %d",
			first.traj, fresh.SettledVertices-before, cancelPollEvery)
	}
}

// cancelOnComplete is a tracer that cancels its search at the first
// completion, recording its expansion step and trip and whether a probe
// came before it.
type cancelOnComplete struct {
	cancel context.CancelFunc
	at     int
	traj   trajdb.TrajID
	probed bool
}

func (c *cancelOnComplete) Emit(ev obs.SpanEvent) {
	switch {
	case c.at >= 0:
	case ev.Kind == TraceProbe:
		c.probed = true
	case ev.Kind == TraceComplete:
		c.at, c.traj = ev.Step, trajdb.TrajID(ev.Traj)
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
