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
