package shard

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"uots/internal/core"
)

// Cache is a sharded LRU over search results, keyed by the full request
// (see cacheKey). It belongs to one Executor, which is immutable over one
// store snapshot, so an entry can never go stale.
//
// Hits return the results only, with zero work stats — a cached answer
// did no store work, and reporting the original query's counters again
// would double-count in metrics. Entries are deep copies: put copies
// the stored list (including each result's Dists) away from the
// caller, and every get hands out a fresh copy, so callers own the
// returned results outright and may mutate them freely.
type Cache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recent
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	res []core.Result
}

// cacheSubShards is the fixed sub-shard count; small caches collapse to
// one sub-shard so the capacity split cannot round a tiny cache to zero
// usable slots per sub-shard.
const cacheSubShards = 8

// newCache builds a cache holding up to total entries across its
// sub-shards, or returns nil (caching disabled) for total <= 0. The
// capacity is distributed exactly: the first total%n sub-shards get one
// extra slot, so the aggregate capacity equals total (a ceil split
// would hand e.g. total=9 a 16-slot budget).
func newCache(total int) *Cache {
	if total <= 0 {
		return nil
	}
	n := cacheSubShards
	if total < n {
		n = 1
	}
	base, rem := total/n, total%n
	c := &Cache{shards: make([]cacheShard, n)}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = base
		if i < rem {
			s.cap++
		}
		s.lru = list.New()
		s.byKey = make(map[string]*list.Element, s.cap)
	}
	return c
}

func (c *Cache) shardFor(key string) *cacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%uint32(len(c.shards))]
}

// copyResults deep-copies a result list: a shallow copy would alias the
// per-result Dists backing arrays, letting one caller's in-place
// mutation corrupt every later hit of the same key.
func copyResults(res []core.Result) []core.Result {
	cp := append([]core.Result(nil), res...)
	for i := range cp {
		cp[i].Dists = append([]float64(nil), cp[i].Dists...)
	}
	return cp
}

// get returns a deep copy of the cached result list for key, if
// present, refreshing its recency.
func (c *Cache) get(key string) ([]core.Result, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(el)
	return copyResults(el.Value.(*cacheEntry).res), true
}

// put stores a deep copy of results under key, evicting the
// least-recently-used entry when the sub-shard is full. It returns the
// number of evictions (0 or 1) for metrics.
func (c *Cache) put(key string, res []core.Result) int {
	s := c.shardFor(key)
	stored := copyResults(res)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[key]; ok {
		el.Value.(*cacheEntry).res = stored
		s.lru.MoveToFront(el)
		return 0
	}
	evicted := 0
	for s.lru.Len() >= s.cap {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.byKey, oldest.Value.(*cacheEntry).key)
		evicted++
	}
	s.byKey[key] = s.lru.PushFront(&cacheEntry{key: key, res: stored})
	return evicted
}

// len reports the total number of cached entries (for tests).
func (c *Cache) len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}

// cacheKey serialises a request into a compact binary key. Every scoring
// input is included: the variant label (which also says which modifier
// bytes follow), the locations (order matters — it is the visiting order
// for order-aware queries), the keyword term set (canonically sorted by
// the TermSet invariant), λ, K, and the modifier's parameters as raw
// uint64 images.
func cacheKey(req core.Request) string {
	q := req.Query
	buf := make([]byte, 0, 64)
	buf = append(buf, req.Variant()...)
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(q.Locations)))
	for _, v := range q.Locations {
		buf = binary.AppendVarint(buf, int64(v))
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Keywords)))
	for _, t := range q.Keywords {
		buf = binary.AppendVarint(buf, int64(t))
	}
	buf = binary.AppendUvarint(buf, math.Float64bits(q.Lambda))
	buf = binary.AppendVarint(buf, int64(q.K))
	if req.Theta != nil {
		buf = binary.AppendUvarint(buf, math.Float64bits(*req.Theta))
	}
	if w := req.Window; w != nil {
		buf = binary.AppendUvarint(buf, math.Float64bits(w.From))
		buf = binary.AppendUvarint(buf, math.Float64bits(w.To))
	}
	if d := req.Diversify; d != nil {
		buf = binary.AppendUvarint(buf, math.Float64bits(d.Mu))
		buf = binary.AppendVarint(buf, int64(d.PoolFactor))
	}
	return string(buf)
}
