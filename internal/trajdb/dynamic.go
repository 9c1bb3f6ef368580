package trajdb

import (
	"errors"
	"fmt"
	"sync"

	"uots/internal/roadnet"
	"uots/internal/textual"
)

// ExternalID is the stable handle a DynamicStore assigns to a trajectory.
// Unlike TrajID it survives deletions: dense TrajIDs are reassigned per
// snapshot, external handles never move.
type ExternalID int64

// DynamicStore is a mutable trajectory collection: trajectories can be
// added and removed at any time, and queries run against immutable dense
// snapshots (the engine requires dense IDs and frozen indexes). Snapshots
// are maintained incrementally for add-only mutation epochs — the common
// shape of a live ingest stream — by extending the previous snapshot's
// indexes with just the new trajectories (Store.extendWith), and fall
// back to the O(live) full rebuild after a removal. Either way a snapshot
// is built lazily on the first read after a mutation burst and cached
// until the next mutation.
//
// DynamicStore is safe for concurrent use.
type DynamicStore struct {
	g     *roadnet.Graph
	vocab *textual.Vocab

	mu     sync.Mutex
	live   map[ExternalID]*Trajectory // keyed by external handle
	order  []ExternalID               // insertion order of live handles
	nextID ExternalID
	gen    uint64 // bumped on every mutation; keys snapshot-scoped caches

	snap    *Store
	snapIDs []ExternalID // dense TrajID → external handle for snap

	// Incremental-maintenance state: the most recently built snapshot
	// stays around as the extension base, with the handles added since it
	// was built. A removal clears both (full rebuild required).
	base    *Store
	baseIDs []ExternalID
	pending []ExternalID // adds since base, in insertion order

	rebuilds   uint64 // full snapshot rebuilds performed
	extensions uint64 // incremental snapshot extensions performed
}

// NewDynamic returns an empty dynamic store over g. vocab may be nil when
// keywords are pre-interned.
func NewDynamic(g *roadnet.Graph, vocab *textual.Vocab) *DynamicStore {
	return &DynamicStore{
		g:     g,
		vocab: vocab,
		live:  make(map[ExternalID]*Trajectory),
	}
}

// NewDynamicFromStore seeds a dynamic store with the live set of an
// immutable store — the boot path of a serving process that loads a
// static corpus and then ingests on top of it. The trajectories are
// trusted (they were validated when s was built or deserialized) and are
// not copied; s must not be mutated afterwards, which Store's own
// immutability already guarantees. Handles are assigned in dense-ID
// order, so the first snapshot assigns every trajectory its original ID.
func NewDynamicFromStore(s *Store) *DynamicStore {
	d := NewDynamic(s.g, s.vocab)
	ids := make([]ExternalID, len(s.trajs))
	for i := range s.trajs {
		t := &s.trajs[i]
		ids[i] = d.insert(&Trajectory{Samples: t.Samples, Keywords: t.Keywords})
	}
	d.gen++ // the seed is a mutation: generation 0 stays "fresh empty store"
	// s already is the dense snapshot of this live set (handles were
	// assigned in dense-ID order), so adopt it instead of rebuilding:
	// the first snapshot read costs nothing and later add-only epochs
	// extend it incrementally.
	d.snap, d.snapIDs = s, ids
	d.base, d.baseIDs = s, ids
	return d
}

// Graph returns the road network the store's trajectories live on.
func (d *DynamicStore) Graph() *roadnet.Graph { return d.g }

// Vocab returns the store's vocabulary (nil when keywords are
// pre-interned by the caller).
func (d *DynamicStore) Vocab() *textual.Vocab { return d.vocab }

// Len returns the number of live trajectories.
func (d *DynamicStore) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.live)
}

// Add validates and inserts a trajectory, returning its stable handle.
func (d *DynamicStore) Add(samples []Sample, keywords textual.TermSet) (ExternalID, error) {
	if err := ValidateSamples(d.g, samples); err != nil {
		return -1, err
	}
	t := &Trajectory{Samples: append([]Sample(nil), samples...), Keywords: keywords}
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.insert(t)
	d.noteAdd(id)
	return id, nil
}

// AddWithKeywords interns the keywords through the store's vocabulary.
func (d *DynamicStore) AddWithKeywords(samples []Sample, keywords []string) (ExternalID, error) {
	if d.vocab == nil {
		return -1, errors.New("trajdb: AddWithKeywords requires a vocabulary")
	}
	return d.Add(samples, d.vocab.InternAll(keywords))
}

// AddGroup validates and inserts n trajectories as one mutation; at(i)
// returns the i-th one's samples and its keywords, interned through the
// store's vocabulary. One lock acquisition and one generation cover the
// group, so no reader can pin a snapshot that holds part of it, nor pay a
// snapshot extension for a generation the group's next trajectory makes
// obsolete. It is all or nothing: the first trajectory that fails
// validation fails the group and nothing is inserted. at runs before the
// lock is taken; an empty group is not a mutation.
func (d *DynamicStore) AddGroup(n int, at func(i int) ([]Sample, []string)) ([]ExternalID, error) {
	if d.vocab == nil {
		return nil, errors.New("trajdb: AddGroup requires a vocabulary")
	}
	if n == 0 {
		return nil, nil
	}
	trajs := make([]*Trajectory, n)
	for i := range trajs {
		samples, keywords := at(i)
		if err := ValidateSamples(d.g, samples); err != nil {
			return nil, fmt.Errorf("trajectory %d: %w", i, err)
		}
		trajs[i] = &Trajectory{Samples: append([]Sample(nil), samples...), Keywords: d.vocab.InternAll(keywords)}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]ExternalID, n)
	for i, t := range trajs {
		ids[i] = d.insert(t)
	}
	d.noteAdd(ids...)
	return ids, nil
}

// insert files t under the next handle. Callers hold d.mu (or own d
// outright, as its constructor does) and follow up with noteAdd.
func (d *DynamicStore) insert(t *Trajectory) ExternalID {
	id := d.nextID
	d.nextID++
	d.live[id] = t
	d.order = append(d.order, id)
	return id
}

// Remove deletes a trajectory by handle, reporting whether it existed.
func (d *DynamicStore) Remove(id ExternalID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.live[id]; !ok {
		return false
	}
	delete(d.live, id)
	d.invalidate()
	return true
}

// Get returns a live trajectory by handle. The result must not be
// modified.
func (d *DynamicStore) Get(id ExternalID) (*Trajectory, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.live[id]
	return t, ok
}

// noteAdd records one mutation that added ids: the cached snapshot is
// dropped (the next read rebuilds lazily) but kept as the extension base
// so that read can extend it with just the pending tail instead of
// rebuilding from scratch. Callers hold d.mu.
func (d *DynamicStore) noteAdd(ids ...ExternalID) {
	d.gen++
	if d.snap != nil {
		d.base, d.baseIDs = d.snap, d.snapIDs
	}
	d.snap, d.snapIDs = nil, nil
	if d.base != nil {
		d.pending = append(d.pending, ids...)
	}
}

// invalidate drops the cached snapshot, the extension base, and advances
// the generation — the removal path, where dense IDs shift and only a
// full rebuild restores them. Callers hold d.mu.
func (d *DynamicStore) invalidate() {
	d.gen++
	d.snap = nil
	d.snapIDs = nil
	d.base = nil
	d.baseIDs = nil
	d.pending = nil
}

// Generation returns a counter that advances on every mutation (Add,
// AddGroup or Remove). Two equal generations bracket an unchanged live
// set, so any value derived from a snapshot — search results, partition
// layouts — may be cached under the generation it was computed at and
// dropped the moment the generation moves on. A fresh store is at
// generation 0.
func (d *DynamicStore) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// Snapshot returns an immutable dense store of the current live set plus
// the dense-ID→handle mapping, rebuilding only when the store mutated
// since the previous call. The snapshot remains valid (and consistent)
// after further mutations; only its contents are frozen in time.
func (d *DynamicStore) Snapshot() (*Store, []ExternalID) {
	snap, ids, _ := d.SnapshotGen()
	return snap, ids
}

// SnapshotGen is Snapshot plus the generation the snapshot belongs to,
// read atomically with the snapshot itself (reading Generation after
// Snapshot could observe a concurrent mutation's bump and mislabel the
// older snapshot). Callers keying caches by generation must use this.
func (d *DynamicStore) SnapshotGen() (*Store, []ExternalID, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.snap != nil {
		return d.snap, d.snapIDs, d.gen
	}
	if d.base != nil {
		// Only additions since the base snapshot: extend it with the
		// pending tail. Dense IDs are insertion-ordered in both paths, so
		// the extension is byte-identical to the rebuild it replaces
		// (property-tested in TestIncrementalSnapshotMatchesRebuild).
		trajs := make([]*Trajectory, len(d.pending))
		for i, id := range d.pending {
			trajs[i] = d.live[id]
		}
		d.snap = d.base.extendWith(trajs)
		d.snapIDs = append(append(make([]ExternalID, 0, len(d.baseIDs)+len(d.pending)), d.baseIDs...), d.pending...)
		d.extensions++
	} else {
		b := NewBuilder(d.g, d.vocab)
		ids := make([]ExternalID, 0, len(d.live))
		compact := d.order[:0]
		for _, id := range d.order {
			t, ok := d.live[id]
			if !ok {
				continue // removed
			}
			compact = append(compact, id)
			if _, err := b.Add(t.Samples, t.Keywords); err != nil {
				// Add validated these samples when they entered the store;
				// failure here means internal corruption. Panic with the
				// typed payload so engine entry points surface it as
				// ErrStoreFault instead of crashing the process.
				panic(&StoreError{Op: "snapshot", ID: TrajID(len(ids)), Err: err})
			}
			ids = append(ids, id)
		}
		d.order = compact
		d.snap = b.Freeze()
		d.snapIDs = ids
		d.rebuilds++
	}
	d.base, d.baseIDs, d.pending = d.snap, d.snapIDs, nil
	return d.snap, d.snapIDs, d.gen
}

// SnapshotStats reports how snapshots have been maintained so far: full
// O(live) rebuilds vs incremental add-only extensions. Exposed for the
// ingest stats surface and the equivalence tests.
func (d *DynamicStore) SnapshotStats() (rebuilds, extensions uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rebuilds, d.extensions
}
