// Package diskstore implements the disk-resident trajectory store of the
// evaluation's storage experiment: when the trajectory data does not fit
// in main memory, the index structures (vertex→trajectory inverted lists,
// keyword inverted index, term sets, bounding boxes, record offsets —
// a trajdb.File) stay resident while trajectory payloads stay in the
// store file and are faulted in through a byte-budgeted LRU buffer.
//
// The store implements the engine's core.TrajStore interface, so the
// expansion search and both baselines run unchanged over it; the only
// difference is I/O on the trajectory-payload access paths
// (Traj, ContainsVertex, UniqueVertices).
package diskstore

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"uots/internal/roadnet"
	"uots/internal/trajdb"
)

// DefaultCacheBytes is the LRU buffer budget used when Open is given a
// non-positive budget (64 MiB, mirroring the evaluation's buffer setup).
const DefaultCacheBytes = 64 << 20

// Create writes src as a store file at path — the file uotsdgen and
// trajdb.WriteStore write, readable by trajdb.ReadStore — plus the index
// sidecar at path+".idx" that lets Open skip its record scan. The sidecar
// is an optimization, never a requirement: Open falls back to the scan
// when it is missing or was not written for these records.
func Create(path string, src *trajdb.Store) error {
	if err := trajdb.CreateFile(path, src); err != nil {
		return fmt.Errorf("diskstore: writing %s: %w", path, err)
	}
	return nil
}

// Store is a disk-resident trajectory store. Everything a trajdb.File
// keeps resident is answered from memory; trajectory records are read
// from the file through a byte-budgeted LRU buffer. Safe for concurrent
// use.
type Store struct {
	*trajdb.File

	mu    sync.Mutex
	cache map[trajdb.TrajID]*list.Element
	lru   *list.List // front = most recent; values are *entry
	used  int
	limit int
	stats CacheStats
}

type entry struct {
	id    trajdb.TrajID
	traj  *trajdb.Trajectory
	verts []roadnet.VertexID // ascending unique vertices
	cost  int
}

// CacheStats counts buffer activity since Open.
type CacheStats struct {
	Loads     int64 // record requests
	Hits      int64
	Misses    int64
	Evictions int64
	BytesRead int64
}

// Open opens the store file at path over g (see trajdb.OpenFile for the
// warm start from the sidecar at path+".idx" and the scan it falls back
// to) and installs an LRU record buffer with the given byte budget (≤0
// selects DefaultCacheBytes).
func Open(path string, g *roadnet.Graph, cacheBytes int) (*Store, error) {
	if cacheBytes <= 0 {
		cacheBytes = DefaultCacheBytes
	}
	f, err := trajdb.OpenFile(path, g)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return &Store{
		File:  f,
		cache: make(map[trajdb.TrajID]*list.Element),
		lru:   list.New(),
		limit: cacheBytes,
	}, nil
}

// Stats returns a snapshot of the buffer counters.
func (s *Store) Stats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CacheBytes returns the buffer budget.
func (s *Store) CacheBytes() int { return s.limit }

// Traj implements core.TrajStore, faulting the record through the buffer.
func (s *Store) Traj(id trajdb.TrajID) *trajdb.Trajectory { return s.load(id).traj }

// UniqueVertices implements core.TrajStore (record payload; may fault).
// The result is the cached record's own list: it must not be modified.
func (s *Store) UniqueVertices(id trajdb.TrajID) []roadnet.VertexID { return s.load(id).verts }

// ContainsVertex implements core.TrajStore (record payload; may fault).
func (s *Store) ContainsVertex(id trajdb.TrajID, v roadnet.VertexID) bool {
	vs := s.load(id).verts
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	return i < len(vs) && vs[i] == v
}

// load returns the cached record, reading and decoding it on a miss.
func (s *Store) load(id trajdb.TrajID) *entry {
	s.mu.Lock()
	s.stats.Loads++
	if el, ok := s.cache[id]; ok {
		s.stats.Hits++
		s.lru.MoveToFront(el)
		e := el.Value.(*entry)
		s.mu.Unlock()
		return e
	}
	s.stats.Misses++
	s.mu.Unlock()

	// Read outside the lock: concurrent misses may read the same record
	// twice, which is harmless and keeps the file read off the hot lock.
	t, verts, size := s.Load(id)
	e := &entry{id: id, traj: t, verts: verts, cost: size + 64}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.BytesRead += int64(size)
	if el, ok := s.cache[id]; ok { // lost a race: keep the incumbent
		s.lru.MoveToFront(el)
		return el.Value.(*entry)
	}
	s.cache[id] = s.lru.PushFront(e)
	s.used += e.cost
	for s.used > s.limit && s.lru.Len() > 1 {
		back := s.lru.Back()
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.cache, victim.id)
		s.used -= victim.cost
		s.stats.Evictions++
	}
	return e
}
