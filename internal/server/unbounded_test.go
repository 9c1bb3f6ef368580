package server

import (
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"uots/internal/core"
	"uots/internal/roadnet"
	"uots/internal/rpc"
	"uots/internal/shard"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// TestUnboundedK: a client k far beyond the store is an ordinary query
// whose answer is the whole store, ranked — on every backend and every
// path that sizes a buffer by k (top-k collectors, the diversified pool
// 4·k, the scatter merge). Unclamped, k = 1<<33 killed the
// process with an out-of-memory fatal error no recover can intercept.
func TestUnboundedK(t *testing.T) {
	// A small world: answers of |T| results keep the cubic MMR
	// selection of the diversified variant cheap.
	g := roadnet.BRNLike(0.1, 4)
	vocab := textual.GenerateVocab(4, 20, 1.0, 2)
	db, err := trajdb.Generate(g, trajdb.GenOptions{Count: 48, MeanSamples: 15, Vocab: vocab, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewEngine(db, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	executor, err := shard.NewExecutor(db, core.Options{}, shard.Config{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer executor.Close()
	const partitions = 2
	groups := make([]*rpc.Group, partitions)
	for p := range groups {
		eng, globals, err := shard.BuildShardEngine(db, core.Options{}, shard.HashPartitioner{}, partitions, p)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := rpc.NewShardServer(eng, globals, p, partitions)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(ss.Handler())
		defer hs.Close()
		if groups[p], err = rpc.NewGroup([]string{hs.URL}, rpc.GroupConfig{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := shard.NewRemoteExecutor(groups, shard.RemoteConfig{Global: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	mu := 0.4
	n := db.NumTrajectories()
	for _, b := range []struct {
		name     string
		searcher SearchBackend
	}{
		{"engine", nil},
		{"executor", executor},
		{"remote", remote},
	} {
		s := NewWithConfig(engine, vocab.Vocab, nil, Config{Searcher: b.searcher})
		for _, k := range []int{1 << 33, math.MaxInt} {
			plain := SearchRequest{VertexIDs: []int32{3, 17}, Keywords: "t0_kw0", K: k}
			diversified := plain
			diversified.DiversifyMu = &mu
			for _, c := range []struct {
				name, path string
				body       any
			}{
				{"search", "/search", plain},
				{"diversified", "/search", diversified},
				{"batch", "/batch", BatchRequest{Queries: []SearchRequest{plain}}},
			} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", b.name, c.name, k), func(t *testing.T) {
					rec, body := doJSON(t, s.Handler(), "POST", c.path, c.body)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s = %d: %v", c.path, rec.Code, body)
					}
					if c.path == "/batch" {
						body = body["responses"].([]any)[0].(map[string]any)
						if e := body["error"]; e != nil {
							t.Fatalf("batch entry failed: %v", e)
						}
					}
					if got := len(body["results"].([]any)); got != n {
						t.Errorf("%d results, want the whole store's %d", got, n)
					}
				})
			}
		}
	}
}

// TestUnboundedBatchWorkers: the client's "workers" must not size the
// batch goroutine pool by itself — two queries need two workers however
// many were asked for. Unclamped, 1<<30 goroutines were started.
func TestUnboundedBatchWorkers(t *testing.T) {
	s, _ := testServer(t)
	before := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Microsecond):
			}
		}
	}()
	rec, body := doJSON(t, s.Handler(), "POST", "/batch", BatchRequest{
		Workers: 1 << 30,
		Queries: []SearchRequest{
			{VertexIDs: []int32{3, 17}, Keywords: "t0_kw0", K: 4},
			{VertexIDs: []int32{3, 29}, Keywords: "t1_kw1", K: 4},
		},
	})
	close(stop)
	<-sampled
	if rec.Code != http.StatusOK {
		t.Fatalf("/batch = %d: %v", rec.Code, body)
	}
	// The sampler, two workers, and slack for the runtime's own.
	if limit := int64(before + 16); peak.Load() > limit {
		t.Errorf("goroutines peaked at %d during a two-query batch (before: %d)", peak.Load(), before)
	}
}
