package shard

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"uots/internal/core"
	"uots/internal/obs"
	"uots/internal/roadnet"
	"uots/internal/textual"
	"uots/internal/trajdb"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(4) // < cacheSubShards → one sub-shard, capacity 4
	if len(c.shards) != 1 {
		t.Fatalf("small cache has %d sub-shards, want 1", len(c.shards))
	}
	res := func(id int) []core.Result { return []core.Result{{Traj: trajdb.TrajID(id), Score: 1}} }
	for i := 0; i < 4; i++ {
		if ev := c.put(fmt.Sprintf("k%d", i), res(i)); ev != 0 {
			t.Fatalf("put %d evicted %d entries from a non-full cache", i, ev)
		}
	}
	// Refresh k0 so k1 becomes the LRU victim.
	if _, ok := c.get("k0"); !ok {
		t.Fatalf("k0 missing before eviction")
	}
	if ev := c.put("k4", res(4)); ev != 1 {
		t.Fatalf("put into full cache evicted %d entries, want 1", ev)
	}
	if _, ok := c.get("k1"); ok {
		t.Fatalf("k1 survived eviction; LRU order ignored")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s missing after eviction", k)
		}
	}
	if got := c.len(); got != 4 {
		t.Errorf("cache holds %d entries, want 4", got)
	}
}

func TestCacheReturnsCopies(t *testing.T) {
	c := newCache(2)
	c.put("k", []core.Result{{Traj: 7, Score: 0.5}})
	a, _ := c.get("k")
	a[0].Traj = 99
	b, _ := c.get("k")
	if b[0].Traj != 7 {
		t.Fatalf("mutating a hit leaked into the cache: traj = %d, want 7", b[0].Traj)
	}
}

// TestCacheDeepCopiesDists is the regression test for the Dists
// aliasing bug: get and put used to copy the result slice shallowly, so
// the per-result Dists backing arrays were shared between the cache and
// every caller — mutating a hit's Dists in place corrupted all later
// hits of the same key.
func TestCacheDeepCopiesDists(t *testing.T) {
	c := newCache(2)
	orig := []core.Result{{Traj: 7, Score: 0.5, Dists: []float64{1.5, 2.5}}}
	c.put("k", orig)

	// The caller's slice must be detached from the stored entry.
	orig[0].Dists[0] = -1
	a, _ := c.get("k")
	if a[0].Dists[0] != 1.5 {
		t.Fatalf("mutating the put slice leaked into the cache: dist = %v, want 1.5", a[0].Dists[0])
	}

	// And a hit's slice must be detached from both the cache and other hits.
	a[0].Dists[1] = -2
	b, _ := c.get("k")
	if b[0].Dists[1] != 2.5 {
		t.Fatalf("mutating a hit's Dists leaked into the cache: dist = %v, want 2.5", b[0].Dists[1])
	}
}

// TestCacheCapacityExact is the regression test for the ceil-split
// over-admission: newCache used to give every sub-shard ceil(total/n)
// slots, so a total=9 cache admitted 16 entries. The aggregate capacity
// must now equal the configured total exactly.
func TestCacheCapacityExact(t *testing.T) {
	for _, total := range []int{1, 7, 8, 9, 15, 17, 100} {
		c := newCache(total)
		sum := 0
		for i := range c.shards {
			if c.shards[i].cap < 1 {
				t.Errorf("total=%d: sub-shard %d has capacity %d", total, i, c.shards[i].cap)
			}
			sum += c.shards[i].cap
		}
		if sum != total {
			t.Errorf("total=%d: aggregate capacity %d, want exactly %d", total, sum, total)
		}
		// Overfill and confirm the LRU never holds more than total entries.
		for i := 0; i < 3*total; i++ {
			c.put(fmt.Sprintf("k%d", i), []core.Result{{Traj: trajdb.TrajID(i)}})
		}
		if got := c.len(); got > total {
			t.Errorf("total=%d: cache holds %d entries after overfill", total, got)
		}
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	q := core.Query{
		Locations: []roadnet.VertexID{3, 1},
		Keywords:  textual.TermSet{2, 5},
		Lambda:    0.5,
		K:         5,
	}
	plain := func(q core.Query) string { return cacheKey(core.Request{Query: q}) }
	base := plain(q)
	if got := plain(q); got != base {
		t.Fatalf("identical inputs produced different keys")
	}
	theta, theta2 := 0.5, 0.6
	variants := map[string]string{
		"variant": cacheKey(core.Request{Query: q, OrderAware: true}),
		"lambda": plain(core.Query{
			Locations: q.Locations, Keywords: q.Keywords, Lambda: 0.6, K: q.K}),
		"k": plain(core.Query{
			Locations: q.Locations, Keywords: q.Keywords, Lambda: q.Lambda, K: 6}),
		"locations order": plain(core.Query{
			Locations: []roadnet.VertexID{1, 3}, Keywords: q.Keywords, Lambda: q.Lambda, K: q.K}),
		"keywords": plain(core.Query{
			Locations: q.Locations, Keywords: textual.TermSet{2, 6}, Lambda: q.Lambda, K: q.K}),
		"theta":     cacheKey(core.Request{Query: q, Theta: &theta}),
		"window":    cacheKey(core.Request{Query: q, Window: &core.TimeWindow{From: 1, To: 2}}),
		"diversify": cacheKey(core.Request{Query: q, Diversify: &core.DiversifyOptions{}}),
	}
	for what, key := range variants {
		if key == base {
			t.Errorf("changing the %s did not change the cache key", what)
		}
	}
	// A modifier's parameters are part of the key, not just its presence.
	params := [][2]core.Request{
		{{Query: q, Theta: &theta}, {Query: q, Theta: &theta2}},
		{{Query: q, Window: &core.TimeWindow{From: 1, To: 2}}, {Query: q, Window: &core.TimeWindow{From: 1, To: 3}}},
		{{Query: q, Diversify: &core.DiversifyOptions{Mu: 0.2}}, {Query: q, Diversify: &core.DiversifyOptions{Mu: 0.4}}},
		{{Query: q, Diversify: &core.DiversifyOptions{PoolFactor: 2}}, {Query: q, Diversify: &core.DiversifyOptions{PoolFactor: 3}}},
	}
	for _, p := range params {
		if cacheKey(p[0]) == cacheKey(p[1]) {
			t.Errorf("%s requests with different parameters share a cache key", p[0].Variant())
		}
	}
}

// countingStore counts every record access so tests can prove a cache
// hit does no store work.
type countingStore struct {
	core.TrajStore
	calls *atomic.Int64
}

func (s *countingStore) Traj(id trajdb.TrajID) *trajdb.Trajectory {
	s.calls.Add(1)
	return s.TrajStore.Traj(id)
}

func (s *countingStore) Keywords(id trajdb.TrajID) textual.TermSet {
	s.calls.Add(1)
	return s.TrajStore.Keywords(id)
}

func (s *countingStore) TrajsAtVertex(v roadnet.VertexID) []trajdb.TrajID {
	s.calls.Add(1)
	return s.TrajStore.TrajsAtVertex(v)
}

func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	return reg.Counter(name, "").Value()
}

func TestExecutorCacheHitSkipsStore(t *testing.T) {
	f := testFixture(t)
	rng := rand.New(rand.NewPCG(67, 0))
	q := f.randomQuery(rng, 3, 3, 0.5, 5)

	reg := obs.NewRegistry()
	calls := &atomic.Int64{}
	eng, err := NewExecutor(f.db, core.Options{}, Config{
		Shards:    3,
		CacheSize: 16,
		Metrics:   reg,
		WrapStore: func(_ int, s core.TrajStore) core.TrajStore {
			return &countingStore{TrajStore: s, calls: calls}
		},
	})
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	defer eng.Close()

	first, _, err := eng.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("first SearchCtx: %v", err)
	}
	afterMiss := calls.Load()
	if afterMiss == 0 {
		t.Fatalf("first query did not touch the store")
	}
	if got := counterValue(t, reg, "uots_shard_cache_misses_total"); got != 1 {
		t.Fatalf("cache misses = %d, want 1", got)
	}

	second, stats, err := eng.SearchCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("second SearchCtx: %v", err)
	}
	if calls.Load() != afterMiss {
		t.Fatalf("cache hit touched the store: %d calls, want %d", calls.Load(), afterMiss)
	}
	if got := counterValue(t, reg, "uots_shard_cache_hits_total"); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if stats.VisitedTrajectories != 0 || stats.Candidates != 0 {
		t.Fatalf("cache hit reported work stats %+v, want zeros", stats)
	}
	sameResults(t, "cache hit", second, first)

	// A different variant over the same query must not share the entry.
	if _, _, err := eng.OrderAwareSearchCtx(context.Background(), q); err != nil {
		t.Fatalf("OrderAwareSearchCtx: %v", err)
	}
	if calls.Load() == afterMiss {
		t.Fatalf("order-aware query was served from the plain search's cache entry")
	}
}
