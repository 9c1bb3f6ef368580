package shard

import (
	"context"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"uots/internal/core"
	"uots/internal/difftest"
	"uots/internal/obs"
	"uots/internal/rpc"
	"uots/internal/trajdb"
)

// remoteCluster is a full in-process distributed topology: shards×replicas
// rpc.ShardServers on loopback HTTP, one rpc.Group per partition, and a
// RemoteExecutor routing over them.
type remoteCluster struct {
	re      *RemoteExecutor
	servers [][]*httptest.Server // [partition][replica]
}

// startCluster builds the topology. gcfg (nil = defaults) picks each
// partition's group config; wrap (nil = identity) intercepts each
// replica's handler — the hook the fault-injection tests use to kill or
// stall individual replicas.
func startCluster(t testing.TB, db core.TrajStore, shards, replicas int, cfg RemoteConfig,
	gcfg func(p int) rpc.GroupConfig, reg *obs.Registry,
	wrap func(p, r int, h http.Handler) http.Handler,
) *remoteCluster {
	t.Helper()
	m := rpc.NewMetrics(reg)
	groups := make([]*rpc.Group, shards)
	servers := make([][]*httptest.Server, shards)
	for p := 0; p < shards; p++ {
		eng, globals, err := BuildShardEngine(db, core.Options{}, HashPartitioner{}, shards, p)
		if err != nil {
			t.Fatalf("BuildShardEngine(%d/%d): %v", p, shards, err)
		}
		bases := make([]string, replicas)
		servers[p] = make([]*httptest.Server, replicas)
		for r := 0; r < replicas; r++ {
			ss, err := rpc.NewShardServer(eng, globals, p, shards)
			if err != nil {
				t.Fatalf("NewShardServer(%d/%d): %v", p, shards, err)
			}
			h := http.Handler(ss.Handler())
			if wrap != nil {
				h = wrap(p, r, h)
			}
			hs := httptest.NewServer(h)
			t.Cleanup(hs.Close)
			servers[p][r] = hs
			bases[r] = hs.URL
		}
		gc := rpc.GroupConfig{}
		if gcfg != nil {
			gc = gcfg(p)
		}
		groups[p], err = rpc.NewGroup(bases, gc, m)
		if err != nil {
			t.Fatalf("NewGroup(partition %d): %v", p, err)
		}
	}
	re, err := NewRemoteExecutor(groups, cfg)
	if err != nil {
		t.Fatalf("NewRemoteExecutor: %v", err)
	}
	t.Cleanup(re.Close)
	return &remoteCluster{re: re, servers: servers}
}

// fastGroup is a group config for fault tests: attempts tries per call,
// on the production backoff schedule.
func fastGroup(attempts int) func(int) rpc.GroupConfig {
	return func(int) rpc.GroupConfig {
		return rpc.GroupConfig{MaxAttempts: attempts}
	}
}

func remoteCounter(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	return reg.Counter(name, "").Value()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRemoteRejectsMiswiredTopology: a router whose groups do not match
// what the shard servers serve — one server behind both groups, servers
// of a different partition count — used to merge the wrong partitions
// into a 200 with duplicated and missing trajectories (swapped order
// only mislabels every per-partition metric and trace: IDs cross the
// wire already global). Once a health probe has seen the identities, the
// mis-wired partitions fail like dead ones instead.
func TestRemoteRejectsMiswiredTopology(t *testing.T) {
	f := testFixture(t)
	serve := func(p, n int) string {
		eng, globals, err := BuildShardEngine(f.db, core.Options{}, HashPartitioner{}, n, p)
		if err != nil {
			t.Fatalf("BuildShardEngine(%d/%d): %v", p, n, err)
		}
		ss, err := rpc.NewShardServer(eng, globals, p, n)
		if err != nil {
			t.Fatalf("NewShardServer(%d/%d): %v", p, n, err)
		}
		hs := httptest.NewServer(ss.Handler())
		t.Cleanup(hs.Close)
		return hs.URL
	}
	a, b := serve(0, 2), serve(1, 2)
	q := f.randomQuery(rand.New(rand.NewPCG(71, 0)), 3, 3, 0.5, 8)

	for _, tc := range []struct {
		name   string
		wiring []string // groups[i] = one replica at wiring[i]
		ok     bool
	}{
		{"as served", []string{a, b}, true},
		{"one server twice", []string{a, a}, false},
		{"swapped order", []string{b, a}, false},
		{"wrong count", []string{serve(0, 3), serve(1, 3)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups := make([]*rpc.Group, len(tc.wiring))
			for i, base := range tc.wiring {
				g, err := rpc.NewGroup([]string{base}, fastGroup(2)(i), nil)
				if err != nil {
					t.Fatalf("NewGroup: %v", err)
				}
				groups[i] = g
			}
			re, err := NewRemoteExecutor(groups, RemoteConfig{Partial: PartialFail})
			if err != nil {
				t.Fatalf("NewRemoteExecutor: %v", err)
			}
			defer re.Close()
			for _, g := range groups {
				g.ProbeAll() // what the background prober and uotsserve's boot do
			}
			got, _, err := re.SearchCtx(context.Background(), q)
			if tc.ok {
				if err != nil || len(got) != q.K {
					t.Fatalf("correctly wired search = (%d results, %v)", len(got), err)
				}
				return
			}
			seen := map[trajdb.TrajID]bool{}
			for _, r := range got {
				if seen[r.Traj] {
					t.Errorf("trajectory %d answered twice", r.Traj)
				}
				seen[r.Traj] = true
			}
			if !errors.Is(err, core.ErrStoreFault) {
				t.Fatalf("mis-wired search = (%d results, %v), want an error wrapping core.ErrStoreFault", len(got), err)
			}
		})
	}
}

// TestRemoteMidQueryCancellation: the client cancels while a replica is
// still computing; the scatter drains and reports the caller's own
// context error, never a partial answer.
func TestRemoteMidQueryCancellation(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(71, 0))
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
				// Drain the body first: the server only watches for client
				// disconnect (cancelling req.Context()) once the request has
				// been fully read.
				io.Copy(io.Discard, req.Body)
				started.Add(1)
				<-req.Context().Done() // park until the client hangs up
			})
		})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type out struct {
		res []core.Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, _, err := cl.re.SearchCtx(ctx, q)
		done <- out{res, err}
	}()
	waitUntil(t, "replica to receive the scattered search", func() bool { return started.Load() > 0 })
	cancel()
	o := <-done
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("mid-query cancel: err = %v, want context.Canceled", o.err)
	}
	if o.res != nil {
		t.Fatalf("cancelled query returned %d results, want none", len(o.res))
	}
}

// abortOnSearch kills the connection mid-request for search traffic —
// the HTTP-level equivalent of the replica process dying — while leaving
// health probes intact.
func abortOnSearch(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == rpc.PathSearch {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, req)
	})
}

// TestRemoteReplicaKilledMidQueryFailsOver: with R=2, killing one
// replica mid-query is invisible — the group retries onto its healthy
// sibling and the answers stay exactly monolithic.
func TestRemoteReplicaKilledMidQueryFailsOver(t *testing.T) {
	f := testFixture(t)
	mono, err := core.NewEngine(f.db, core.Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	rng := rand.New(rand.NewPCG(73, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	reg := obs.NewRegistry()
	cl := startCluster(t, f.db, 2, 2, RemoteConfig{Global: mono}, fastGroup(3), reg,
		func(p, r int, h http.Handler) http.Handler {
			if p == 0 && r == 0 {
				return abortOnSearch(h)
			}
			return h
		})

	ctx := context.Background()
	theta := 0.35
	window := core.TimeWindow{From: 6 * 3600, To: 18 * 3600}
	divOpts := core.DiversifyOptions{Mu: 0.4}
	for _, req := range []core.Request{
		{Query: q}, {Query: q, Theta: &theta}, {Query: q, Window: &window},
		{Query: q, OrderAware: true}, {Query: q, Diversify: &divOpts},
	} {
		want, _, err := req.Run(ctx, mono)
		if err != nil {
			t.Fatalf("monolithic %s: %v", req.Variant(), err)
		}
		got, _, err := req.Run(ctx, cl.re)
		if err != nil {
			t.Fatalf("killed-replica/%s: %v", req.Variant(), err)
		}
		if err := difftest.Mismatch(got, want, len(want)); err != nil {
			t.Errorf("killed-replica/%s: %v", req.Variant(), err)
		}
	}

	if got := remoteCounter(t, reg, "uots_rpc_retries_total"); got == 0 {
		t.Fatalf("failover path recorded no retries")
	}
	if got := remoteCounter(t, reg, "uots_rpc_group_exhausted_total"); got != 0 {
		t.Fatalf("group exhausted %d times despite a healthy sibling", got)
	}
}

// TestRemotePartitionDownDegrades: with R=1, killing a partition's only
// replica exhausts its group; under PartialDegrade the answer is exactly
// the top-k over the surviving partitions — the same oracle the
// in-process degraded test pins.
func TestRemotePartitionDownDegrades(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(79, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)
	const shards, faultShard = 4, 2

	reg := obs.NewRegistry()
	cl := startCluster(t, f.db, shards, 1, RemoteConfig{Partial: PartialDegrade}, fastGroup(2), reg,
		func(p, r int, h http.Handler) http.Handler {
			if p == faultShard {
				return abortOnSearch(h)
			}
			return h
		})

	got, _, err := cl.re.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("degraded SearchCtx: %v", err)
	}
	if len(got) == 0 {
		t.Fatalf("degraded query returned no results")
	}
	if v := remoteCounter(t, reg, "uots_rpc_group_exhausted_total"); v == 0 {
		t.Fatalf("dead partition never reported group exhaustion")
	}

	want := rankingWithout(t, f, q, shardIDs(f.db.NumTrajectories(), shards, faultShard, nil))
	if err := difftest.Mismatch(got, want, q.K); err != nil {
		t.Errorf("remote degraded top-k: %v", err)
	}
}

// TestRemotePartitionDownFails: same dead partition under PartialFail —
// the exhausted group surfaces as the canonical store fault, exactly
// like an injected *trajdb.StoreError in the in-process executor.
func TestRemotePartitionDownFails(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(83, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	cl := startCluster(t, f.db, 2, 1, RemoteConfig{Partial: PartialFail}, fastGroup(2), nil,
		func(p, r int, h http.Handler) http.Handler {
			if p == 1 {
				return abortOnSearch(h)
			}
			return h
		})

	res, _, err := cl.re.SearchCtx(context.Background(), q)
	if !errors.Is(err, core.ErrStoreFault) {
		t.Fatalf("dead partition under PartialFail: err = %v, want ErrStoreFault", err)
	}
	if !errors.Is(err, rpc.ErrGroupExhausted) {
		t.Fatalf("dead partition error %v does not carry ErrGroupExhausted", err)
	}
	if res != nil {
		t.Fatalf("failed query returned %d results, want none", len(res))
	}
}

// TestRemoteRejections covers the remote-only argument errors.
func TestRemoteRejections(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(97, 0))
	q := f.randomQuery(rng, 2, 2, 0.5, 5)
	cl := startCluster(t, f.db, 2, 1, RemoteConfig{}, nil, nil, nil)

	if _, _, err := cl.re.DiversifiedSearchCtx(context.Background(), q, core.DiversifyOptions{}); !errors.Is(err, ErrRemoteDiversify) {
		t.Fatalf("diversified without Global: err = %v, want ErrRemoteDiversify", err)
	}
	if _, err := NewRemoteExecutor(nil, RemoteConfig{}); !errors.Is(err, ErrBadShards) {
		t.Fatalf("NewRemoteExecutor with no groups: err = %v, want ErrBadShards", err)
	}
}
