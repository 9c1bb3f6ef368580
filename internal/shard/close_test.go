package shard

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/rpc"
	"uots/internal/trajdb"
)

// gateStore parks the first TrajsAtVertex call on gate, signalling
// parked, so a test can hold a query mid-scatter deterministically.
type gateStore struct {
	core.TrajStore
	once   sync.Once
	parked chan struct{}
	gate   chan struct{}
}

func (s *gateStore) TrajsAtVertex(v roadnet.VertexID) []trajdb.TrajID {
	s.once.Do(func() {
		close(s.parked)
		<-s.gate
	})
	return s.TrajStore.TrajsAtVertex(v)
}

// TestExecutorCloseIdempotent: repeated and concurrent Close calls are
// all safe, and queries after any of them fail with ErrClosed.
func TestExecutorCloseIdempotent(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(101, 0))
	q := f.randomQuery(rng, 2, 2, 0.5, 5)

	eng, err := NewExecutor(f.db, core.Options{}, Config{Shards: 2})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng.Close()
		}()
	}
	wg.Wait()
	eng.Close() // and once more, sequentially
	if _, _, err := eng.SearchCtx(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchCtx after Close: err = %v, want ErrClosed", err)
	}
}

// TestExecutorCloseDuringQuery: Close racing an in-flight query waits for
// it to drain; the query either completes normally or fails ErrClosed,
// and later queries always fail ErrClosed.
func TestExecutorCloseDuringQuery(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(103, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	gs := &gateStore{parked: make(chan struct{}), gate: make(chan struct{})}
	eng, err := NewExecutor(f.db, core.Options{}, Config{
		Shards: 2,
		wrapStore: func(_ int, s core.TrajStore) core.TrajStore {
			if gs.TrajStore == nil {
				gs.TrajStore = s
				return gs
			}
			return s
		},
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}

	type out struct {
		res []core.Result
		err error
	}
	qdone := make(chan out, 1)
	go func() {
		res, _, err := eng.SearchCtx(context.Background(), q)
		qdone <- out{res, err}
	}()
	<-gs.parked
	cdone := make(chan struct{})
	go func() {
		eng.Close()
		close(cdone)
	}()
	// Close must wait for the parked query, not tear the pool down under
	// it: give it a moment, then release the query.
	select {
	case <-cdone:
		t.Fatalf("Close returned while a query was still parked in a shard search")
	case <-time.After(20 * time.Millisecond):
	}
	close(gs.gate)
	o := <-qdone
	<-cdone
	if o.err != nil && !errors.Is(o.err, ErrClosed) {
		t.Fatalf("query racing Close: err = %v, want nil or ErrClosed", o.err)
	}
	if o.err == nil && len(o.res) == 0 {
		t.Fatalf("query racing Close completed with no results")
	}
	if _, _, err := eng.SearchCtx(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchCtx after Close: err = %v, want ErrClosed", err)
	}
}

// TestRemoteExecutorCloseIdempotent mirrors the Executor contract for
// the network executor.
func TestRemoteExecutorCloseIdempotent(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(107, 0))
	q := f.randomQuery(rng, 2, 2, 0.5, 5)
	cl := startCluster(t, f.db, 2, 1, RemoteConfig{}, nil, nil, nil)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.re.Close()
		}()
	}
	wg.Wait()
	cl.re.Close()
	if _, _, err := cl.re.SearchCtx(context.Background(), q); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchCtx after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := cl.re.SearchBatch(context.Background(), []core.Query{q}, core.BatchOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchBatch after Close: err = %v, want ErrClosed", err)
	}
}

// TestRemoteExecutorCloseDuringQuery: Close aborts in-flight scatters
// (parked on a stalled replica) and the query reports ErrClosed — not a
// raw cancellation, and never a partial answer.
func TestRemoteExecutorCloseDuringQuery(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(109, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	var started atomic.Int64
	cl := startCluster(t, f.db, 2, 1, RemoteConfig{}, nil, nil,
		func(p, r int, h http.Handler) http.Handler {
			if p != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if req.URL.Path != rpc.PathSearch {
					h.ServeHTTP(w, req)
					return
				}
				io.Copy(io.Discard, req.Body) // see TestRemoteMidQueryCancellation
				started.Add(1)
				<-req.Context().Done()
			})
		})

	type out struct {
		res []core.Result
		err error
	}
	qdone := make(chan out, 1)
	go func() {
		res, _, err := cl.re.SearchCtx(context.Background(), q)
		qdone <- out{res, err}
	}()
	waitUntil(t, "replica to receive the scattered search", func() bool { return started.Load() > 0 })
	cl.re.Close()
	o := <-qdone
	if !errors.Is(o.err, ErrClosed) {
		t.Fatalf("query racing Close: err = %v, want ErrClosed", o.err)
	}
	if o.res != nil {
		t.Fatalf("closed query returned %d results, want none", len(o.res))
	}
}

// gateTracer parks the first event it receives on gate, signalling
// parked: a query emits its scatter event after its admission, so the
// query is then held admitted where Close's cancellation cannot reach.
type gateTracer struct {
	once   sync.Once
	parked chan struct{}
	gate   chan struct{}
}

func (g *gateTracer) Emit(obs.SpanEvent) {
	g.once.Do(func() {
		close(g.parked)
		<-g.gate
	})
}

// TestRemoteExecutorCloseWaitsForQueries: Close does not return while an
// admitted query is still running, even one its cancellation cannot
// reach, and refuses new queries with ErrClosed while it waits instead
// of blocking them; the held query, once released, fails with ErrClosed.
func TestRemoteExecutorCloseWaitsForQueries(t *testing.T) {
	f := testFixture(t)
	q := f.randomQuery(rand.New(rand.NewPCG(127, 0)), 2, 2, 0.5, 5)
	cl := startCluster(t, f.db, 2, 1, RemoteConfig{}, nil, nil, nil)
	tr := &gateTracer{parked: make(chan struct{}), gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(tr.gate) })
	defer release()

	qdone := make(chan error, 1)
	go func() {
		_, _, err := cl.re.SearchCtx(obs.ContextWithTracer(context.Background(), tr), q)
		qdone <- err
	}()
	<-tr.parked
	cdone := make(chan struct{})
	go func() {
		cl.re.Close()
		close(cdone)
	}()
	waitUntil(t, "Close to refuse a new query", func() bool {
		_, _, err := cl.re.SearchCtx(context.Background(), q)
		return errors.Is(err, ErrClosed)
	})
	select {
	case <-cdone:
		t.Fatal("Close returned while an admitted query was still running")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	<-cdone
	if err := <-qdone; !errors.Is(err, ErrClosed) {
		t.Fatalf("query held across Close: err = %v, want ErrClosed", err)
	}
}

// TestRemoteExecutorCloseDuringBatch: Close racing a multi-query batch
// whose two workers are parked on a stalled replica lets the batch
// return: the parked queries and the ones still queued hold ErrClosed,
// the ones that finished before hold the complete monolithic answer,
// and a batch issued after Close fails with ErrClosed as a whole.
func TestRemoteExecutorCloseDuringBatch(t *testing.T) {
	f := testFixture(t)
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	queries := batchQueries(f, rand.New(rand.NewPCG(113, 0)), 8, 4)

	// Partition 0 parks its first and its fifth search until the caller
	// goes away and serves the rest: one worker parks at once, the other
	// answers three queries and parks on its fourth, and three queries
	// stay queued.
	const parkA, parkB = 1, 5
	var received atomic.Int64
	cl := startCluster(t, f.db, 2, 1, RemoteConfig{}, nil, nil,
		func(p, r int, h http.Handler) http.Handler {
			if p != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if req.URL.Path != rpc.PathSearch {
					h.ServeHTTP(w, req)
					return
				}
				if n := received.Add(1); n != parkA && n != parkB {
					h.ServeHTTP(w, req)
					return
				}
				io.Copy(io.Discard, req.Body) // see TestRemoteMidQueryCancellation
				<-req.Context().Done()
			})
		})

	type out struct {
		res []core.BatchResult
		err error
	}
	bdone := make(chan out, 1)
	go func() {
		res, _, err := cl.re.SearchBatch(context.Background(), queries, core.BatchOptions{Workers: 2})
		bdone <- out{res, err}
	}()
	waitUntil(t, "both batch workers to park", func() bool { return received.Load() == parkB })
	cdone := make(chan struct{})
	go func() {
		cl.re.Close()
		close(cdone)
	}()
	var o out
	select {
	case o = <-bdone:
	case <-time.After(10 * time.Second):
		t.Fatal("batch still running 10 s after Close")
	}
	<-cdone
	if o.err != nil {
		t.Fatalf("batch racing Close: err = %v, want nil (per-slot errors only)", o.err)
	}
	closed, complete := 0, 0
	for i, r := range o.res {
		if r.Err != nil {
			if !errors.Is(r.Err, ErrClosed) {
				t.Errorf("slot %d: err = %v, want ErrClosed or an answer", i, r.Err)
			}
			closed++
			continue
		}
		want, _, err := mono.SearchCtx(context.Background(), queries[i])
		if err != nil {
			t.Fatalf("monolithic query %d: %v", i, err)
		}
		if err := difftest.Mismatch(r.Results, want, len(want)); err != nil {
			t.Errorf("slot %d: %v", i, err)
		}
		complete++
	}
	if want := parkB - parkA - 1; complete != want || closed != len(queries)-want {
		t.Errorf("%d slots complete, %d closed; want %d and %d", complete, closed, want, len(queries)-want)
	}
	if _, _, err := cl.re.SearchBatch(context.Background(), queries, core.BatchOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SearchBatch after Close: err = %v, want ErrClosed", err)
	}
}
