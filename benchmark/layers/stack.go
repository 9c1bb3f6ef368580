package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"uots/benchmark/workload"
	"uots/internal/core"
	"uots/internal/ingest"
	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/rpc"
	"uots/internal/server"
	"uots/internal/shard"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

// serverConfig mirrors uotsserve's flag defaults, so the in-process
// handler runs the middleware the real process runs.
func serverConfig() server.Config {
	return server.Config{Timeout: 10 * time.Second, MaxInFlight: 64, Metrics: obs.NewRegistry()}
}

// inSpan wraps next in a span called name.
func inSpan(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec.begin(name)
		defer rec.end()
		next.ServeHTTP(w, r)
	})
}

// serve sends one generated request through h the way net/http would
// hand it over, minus the socket.
func serve(h http.Handler, r workload.Request, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, r.Path, bytes.NewReader(r.Body))
	for k, v := range header {
		req.Header[k] = v
	}
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr
}

// countStore counts the store calls of the expansion loop. Counts only:
// a timer per call would cost more than the calls it measured. The
// fields are plain ints because the replay is single-goroutine and
// /batch runs with one worker, which the replay waits for.
type countStore struct {
	core.TrajStore
	postingsCalls, postingsIDs, trajLoads, keywordsCalls int
}

func (c *countStore) TrajsAtVertex(v roadnet.VertexID) []trajdb.TrajID {
	ids := c.TrajStore.TrajsAtVertex(v)
	c.postingsCalls++
	c.postingsIDs += len(ids)
	return ids
}

func (c *countStore) Traj(id trajdb.TrajID) *trajdb.Trajectory {
	c.trajLoads++
	return c.TrajStore.Traj(id)
}

func (c *countStore) Keywords(id trajdb.TrajID) textual.TermSet {
	c.keywordsCalls++
	return c.TrajStore.Keywords(id)
}

// spanBackend puts a span around every backend call and keeps the work
// counters the call returned. It sits in the server.Config.Searcher seam.
type spanBackend struct {
	next     server.SearchBackend
	rec      *recorder
	name     string             // span name of a single search
	searches []core.SearchStats // one per query, batch members included
	results  int                // trajectories returned
	batches  []core.BatchStats
}

func (b *spanBackend) single(res []core.Result, st core.SearchStats, err error) ([]core.Result, core.SearchStats, error) {
	b.rec.end()
	if err == nil {
		b.searches = append(b.searches, st)
		b.results += len(res)
	}
	return res, st, err
}

func (b *spanBackend) SearchCtx(ctx context.Context, q core.Query) ([]core.Result, core.SearchStats, error) {
	b.rec.begin(b.name)
	return b.single(b.next.SearchCtx(ctx, q))
}

func (b *spanBackend) SearchThresholdCtx(ctx context.Context, q core.Query, theta float64) ([]core.Result, core.SearchStats, error) {
	b.rec.begin(b.name)
	return b.single(b.next.SearchThresholdCtx(ctx, q, theta))
}

func (b *spanBackend) SearchWindowedCtx(ctx context.Context, q core.Query, w core.TimeWindow) ([]core.Result, core.SearchStats, error) {
	b.rec.begin(b.name)
	return b.single(b.next.SearchWindowedCtx(ctx, q, w))
}

func (b *spanBackend) OrderAwareSearchCtx(ctx context.Context, q core.Query) ([]core.Result, core.SearchStats, error) {
	b.rec.begin(b.name)
	return b.single(b.next.OrderAwareSearchCtx(ctx, q))
}

func (b *spanBackend) DiversifiedSearchCtx(ctx context.Context, q core.Query, opts core.DiversifyOptions) ([]core.Result, core.SearchStats, error) {
	b.rec.begin(b.name)
	return b.single(b.next.DiversifiedSearchCtx(ctx, q, opts))
}

func (b *spanBackend) SearchBatch(ctx context.Context, queries []core.Query, opts core.BatchOptions) ([]core.BatchResult, core.BatchStats, error) {
	b.rec.begin("core.batch")
	out, st, err := b.next.SearchBatch(ctx, queries, opts)
	b.rec.end()
	if err == nil {
		b.batches = append(b.batches, st)
		for _, o := range out {
			if o.Err == nil {
				b.searches = append(b.searches, o.Stats)
				b.results += len(o.Results)
			}
		}
	}
	return out, st, err
}

// monoStack assembles what a default uotsserve serves: one engine behind
// the server's handler. With a recorder it adds the decorators: a span
// around the handler, one around the backend, and the counting store.
func monoStack(store *trajdb.Store, rec *recorder) (http.Handler, *spanBackend, *countStore, error) {
	cfg := serverConfig()
	if rec == nil {
		eng, err := core.NewEngine(store, core.Options{})
		if err != nil {
			return nil, nil, nil, err
		}
		return server.NewWithConfig(eng, store.Vocab(), nil, cfg).Handler(), nil, nil, nil
	}
	cs := &countStore{TrajStore: store}
	eng, err := core.NewEngine(cs, core.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	be := &spanBackend{next: eng, rec: rec, name: "core.search"}
	cfg.Searcher = be
	h := server.NewWithConfig(eng, store.Vocab(), nil, cfg).Handler()
	return inSpan(rec, "server.handler", h), be, cs, nil
}

// shardCall is one request a shard server handled.
type shardCall struct {
	start, end          int64
	reqBytes, respBytes int
}

// shardTap records the calls the two shard servers handle. They run on
// the test servers' goroutines, both at once, hence the mutex.
type shardTap struct {
	rec   *recorder
	mu    sync.Mutex
	calls []shardCall
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return w.ResponseWriter.Write(p)
}

func (t *shardTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := t.rec.now()
		next.ServeHTTP(cw, r)
		end := t.rec.now()
		t.mu.Lock()
		t.calls = append(t.calls, shardCall{start, end, int(r.ContentLength), cw.n})
		t.mu.Unlock()
	})
}

// take returns the calls recorded since the last take.
func (t *shardTap) take() []shardCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls := t.calls
	t.calls = nil
	return calls
}

const partitions = 2

// remote is the in-process twin of `uotsserve -remote-shards 'a;b'`:
// two shard servers (hash partition, one replica each) on loopback HTTP
// behind a router with uotsserve's default RPC flags, hedging off.
type remote struct {
	handler http.Handler
	backend *spanBackend // nil without a recorder
	tap     *shardTap    // nil without a recorder
	servers []*httptest.Server
	groups  []*rpc.Group
	exec    *shard.RemoteExecutor
}

// close is safe on a half-built stack; Group.Close is idempotent.
func (r *remote) close() {
	if r.exec != nil {
		r.exec.Close()
	}
	for _, g := range r.groups {
		g.Close()
	}
	for _, ts := range r.servers {
		ts.Close()
	}
}

func remoteStack(store *trajdb.Store, rec *recorder) (_ *remote, err error) {
	r := &remote{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if rec != nil {
		r.tap = &shardTap{rec: rec}
	}
	cfg := serverConfig()
	for i := 0; i < partitions; i++ {
		eng, globals, err := shard.BuildShardEngine(store, core.Options{}, shard.HashPartitioner{}, partitions, i)
		if err != nil {
			return nil, err
		}
		ss, err := rpc.NewShardServer(eng, globals, i, partitions)
		if err != nil {
			return nil, err
		}
		sh := ss.Handler()
		if r.tap != nil {
			sh = r.tap.wrap(sh)
		}
		ts := httptest.NewServer(sh)
		r.servers = append(r.servers, ts)
		g, err := rpc.NewGroup([]string{ts.URL}, rpc.GroupConfig{
			CallTimeout: 2 * time.Second, MaxAttempts: 3, ProbeInterval: 5 * time.Second,
		}, rpc.NewMetrics(cfg.Metrics))
		if err != nil {
			return nil, err
		}
		r.groups = append(r.groups, g)
	}
	global, err := core.NewEngine(store, core.Options{})
	if err != nil {
		return nil, err
	}
	r.exec, err = shard.NewRemoteExecutor(r.groups, shard.RemoteConfig{Global: global, Partial: shard.PartialFail, Metrics: cfg.Metrics})
	if err != nil {
		return nil, err
	}
	cfg.Searcher = r.exec
	if rec != nil {
		r.backend = &spanBackend{next: r.exec, rec: rec, name: "rpc.call"}
		cfg.Searcher = r.backend
	}
	r.handler = server.NewWithConfig(global, store.Vocab(), nil, cfg).Handler()
	if rec != nil {
		r.handler = inSpan(rec, "server.handler", r.handler)
	}
	return r, nil
}

// ingestStack assembles what `uotsserve -ingest -fsync always` serves
// over a fresh WAL at walPath. In live mode the server resolves its
// engine per request from the service, so there is no Searcher seam and
// the only span is the handler's.
func ingestStack(store *trajdb.Store, walPath string, rec *recorder) (http.Handler, *ingest.Service, error) {
	cfg := serverConfig()
	svc, err := ingest.Open(trajdb.NewDynamicFromStore(store), ingest.Config{
		WALPath: walPath,
		Fsync:   ingest.FsyncAlways,
		Metrics: obs.NewIngestMetrics(cfg.Metrics),
	})
	if err != nil {
		return nil, nil, err
	}
	cfg.Live = svc
	h := server.NewWithConfig(nil, store.Vocab(), nil, cfg).Handler()
	if rec != nil {
		h = inSpan(rec, "server.handler", h)
	}
	return h, svc, nil
}
