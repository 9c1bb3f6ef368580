package trajdb

import (
	"math/rand/v2"
	"testing"

	"uots/internal/roadnet"
	"uots/internal/textual"
)

// mirrorTraj is the test's own record of one live trajectory, kept in
// insertion order so a reference store can be rebuilt from scratch at
// any checkpoint.
type mirrorTraj struct {
	samples  []Sample
	keywords textual.TermSet
}

// buildReference freezes the mirror's live set into an immutable store
// through the only code path the engine contract trusts: Builder.Add in
// insertion order. This is the oracle every incremental extension must
// match byte for byte.
func buildReference(t *testing.T, g *roadnet.Graph, vocab *textual.Vocab, live []mirrorTraj) *Store {
	t.Helper()
	b := NewBuilder(g, vocab)
	for _, mt := range live {
		if _, err := b.Add(mt.samples, mt.keywords); err != nil {
			t.Fatalf("reference Add: %v", err)
		}
	}
	return b.Freeze()
}

// requireStoresIdentical compares every index structure and payload of
// two stores: trajectory records, per-vertex posting lists, per-traj
// unique-vertex lists, bounding boxes, sample totals, and the keyword
// inverted index (postings and per-doc term sets for every interned
// term). A mismatch anywhere fails the test.
func requireStoresIdentical(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got.NumTrajectories() != want.NumTrajectories() {
		t.Fatalf("%s: %d trajectories, want %d", label, got.NumTrajectories(), want.NumTrajectories())
	}
	if got.TotalSamples() != want.TotalSamples() {
		t.Fatalf("%s: %d total samples, want %d", label, got.TotalSamples(), want.TotalSamples())
	}
	for id := 0; id < want.NumTrajectories(); id++ {
		a, b := got.Traj(TrajID(id)), want.Traj(TrajID(id))
		if a.ID != b.ID {
			t.Fatalf("%s: traj %d has ID %d, want %d", label, id, a.ID, b.ID)
		}
		if len(a.Samples) != len(b.Samples) {
			t.Fatalf("%s: traj %d has %d samples, want %d", label, id, len(a.Samples), len(b.Samples))
		}
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				t.Fatalf("%s: traj %d sample %d = %+v, want %+v", label, id, i, a.Samples[i], b.Samples[i])
			}
		}
		if len(a.Keywords) != len(b.Keywords) {
			t.Fatalf("%s: traj %d keywords %v, want %v", label, id, a.Keywords, b.Keywords)
		}
		for i := range a.Keywords {
			if a.Keywords[i] != b.Keywords[i] {
				t.Fatalf("%s: traj %d keywords %v, want %v", label, id, a.Keywords, b.Keywords)
			}
		}
		au, bu := got.UniqueVertices(TrajID(id)), want.UniqueVertices(TrajID(id))
		if len(au) != len(bu) {
			t.Fatalf("%s: traj %d unique vertices %v, want %v", label, id, au, bu)
		}
		for i := range au {
			if au[i] != bu[i] {
				t.Fatalf("%s: traj %d unique vertices %v, want %v", label, id, au, bu)
			}
		}
		if got.BBox(TrajID(id)) != want.BBox(TrajID(id)) {
			t.Fatalf("%s: traj %d bbox %+v, want %+v", label, id, got.BBox(TrajID(id)), want.BBox(TrajID(id)))
		}
	}
	for v := 0; v < want.Graph().NumVertices(); v++ {
		a, b := got.TrajsAtVertex(roadnet.VertexID(v)), want.TrajsAtVertex(roadnet.VertexID(v))
		if len(a) != len(b) {
			t.Fatalf("%s: vertex %d postings %v, want %v", label, v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: vertex %d postings %v, want %v", label, v, a, b)
			}
		}
	}
	gx, wx := got.TextIndex(), want.TextIndex()
	if gx.NumDocs() != wx.NumDocs() {
		t.Fatalf("%s: text index has %d docs, want %d", label, gx.NumDocs(), wx.NumDocs())
	}
	vocabSize := 0
	if want.Vocab() != nil {
		vocabSize = want.Vocab().Size()
	}
	for term := 0; term < vocabSize; term++ {
		a, b := gx.Postings(textual.TermID(term)), wx.Postings(textual.TermID(term))
		if len(a) != len(b) {
			t.Fatalf("%s: term %d postings %v, want %v", label, term, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: term %d postings %v, want %v", label, term, a, b)
			}
		}
	}
	for d := 0; d < wx.NumDocs(); d++ {
		a, b := gx.DocTerms(textual.DocID(d)), wx.DocTerms(textual.DocID(d))
		if len(a) != len(b) {
			t.Fatalf("%s: doc %d terms %v, want %v", label, d, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: doc %d terms %v, want %v", label, d, a, b)
			}
		}
	}
}

// randomTraj draws a short valid trajectory on g.
func randomTraj(rng *rand.Rand, g *roadnet.Graph, vocab *textual.Vocab) mirrorTraj {
	n := 1 + rng.IntN(6)
	samples := make([]Sample, n)
	tm := rng.Float64() * 1000
	for i := range samples {
		samples[i] = Sample{V: roadnet.VertexID(rng.IntN(g.NumVertices())), T: tm}
		tm += rng.Float64() * 100
	}
	var terms []textual.TermID
	for k := rng.IntN(4); k > 0; k-- {
		terms = append(terms, textual.TermID(rng.IntN(vocab.Size())))
	}
	return mirrorTraj{samples: samples, keywords: textual.NewTermSet(terms)}
}

// TestIncrementalSnapshotMatchesRebuild drives randomized add/remove/
// snapshot interleavings against a DynamicStore and proves, at every
// snapshot checkpoint, that the (possibly incrementally extended)
// snapshot is byte-identical to a from-scratch rebuild of the same live
// set — and that earlier pinned snapshots remain untouched after later
// extensions (the MVCC invariant at the store layer).
func TestIncrementalSnapshotMatchesRebuild(t *testing.T) {
	g := testGraph(t)
	vocab := textual.NewVocab()
	for _, term := range []string{"food", "museum", "park", "night", "river", "cheap"} {
		vocab.Intern(term)
	}

	for seed := uint64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
		d := NewDynamic(g, vocab)
		var live []mirrorTraj
		var handles []ExternalID

		// Pinned earlier snapshots with their reference live sets,
		// re-verified at the end: later extensions must not disturb them.
		type pin struct {
			snap *Store
			ref  []mirrorTraj
		}
		var pins []pin

		for step := 0; step < 120; step++ {
			switch op := rng.IntN(10); {
			case op < 6: // add
				mt := randomTraj(rng, g, vocab)
				id, err := d.Add(mt.samples, mt.keywords)
				if err != nil {
					t.Fatalf("seed %d step %d: Add: %v", seed, step, err)
				}
				live = append(live, mt)
				handles = append(handles, id)
			case op < 7 && len(handles) > 0: // remove
				i := rng.IntN(len(handles))
				if !d.Remove(handles[i]) {
					t.Fatalf("seed %d step %d: Remove(%d) said missing", seed, step, handles[i])
				}
				live = append(live[:i:i], live[i+1:]...)
				handles = append(handles[:i:i], handles[i+1:]...)
			default: // snapshot checkpoint
				snap, ids := d.Snapshot()
				if len(ids) != len(live) {
					t.Fatalf("seed %d step %d: snapshot has %d handles, want %d", seed, step, len(ids), len(live))
				}
				want := buildReference(t, g, vocab, live)
				requireStoresIdentical(t, "checkpoint", snap, want)
				pins = append(pins, pin{snap: snap, ref: append([]mirrorTraj(nil), live...)})
			}
		}

		// MVCC at the store layer: every pinned snapshot still matches
		// the reference of its own epoch, no matter what came after.
		for i, p := range pins {
			want := buildReference(t, g, vocab, p.ref)
			requireStoresIdentical(t, "pinned epoch", p.snap, want)
			_ = i
		}

		rebuilds, extensions := d.SnapshotStats()
		if rebuilds+extensions == 0 && len(pins) > 0 {
			t.Fatalf("seed %d: no snapshot work recorded across %d checkpoints", seed, len(pins))
		}
	}
}

// TestIncrementalExtensionIsUsed pins down the cost model: an add-only
// run of mutations between snapshots must take the extension path, and a
// removal must force exactly one full rebuild before extensions resume.
func TestIncrementalExtensionIsUsed(t *testing.T) {
	g := testGraph(t)
	vocab := textual.NewVocab()
	vocab.Intern("kw")
	d := NewDynamic(g, vocab)

	add := func(n int) []ExternalID {
		t.Helper()
		ids := make([]ExternalID, n)
		for i := range ids {
			id, err := d.Add([]Sample{{V: roadnet.VertexID(i % g.NumVertices()), T: float64(i)}}, vocab.InternAll([]string{"kw"}))
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = id
		}
		return ids
	}

	add(5)
	d.Snapshot() // first snapshot: full rebuild
	if r, e := d.SnapshotStats(); r != 1 || e != 0 {
		t.Fatalf("after first snapshot: rebuilds=%d extensions=%d, want 1/0", r, e)
	}
	add(3)
	d.Snapshot() // add-only epoch: extension
	if r, e := d.SnapshotStats(); r != 1 || e != 1 {
		t.Fatalf("after add-only epoch: rebuilds=%d extensions=%d, want 1/1", r, e)
	}
	ids := add(2)
	d.Snapshot()
	if r, e := d.SnapshotStats(); r != 1 || e != 2 {
		t.Fatalf("after second add-only epoch: rebuilds=%d extensions=%d, want 1/2", r, e)
	}
	d.Remove(ids[0])
	d.Snapshot() // removal: full rebuild
	if r, e := d.SnapshotStats(); r != 2 || e != 2 {
		t.Fatalf("after removal epoch: rebuilds=%d extensions=%d, want 2/2", r, e)
	}
	add(1)
	d.Snapshot() // extensions resume on the rebuilt base
	if r, e := d.SnapshotStats(); r != 2 || e != 3 {
		t.Fatalf("after post-removal adds: rebuilds=%d extensions=%d, want 2/3", r, e)
	}
}

// TestDynamicFromStoreAdoptsSnapshot proves the boot path: seeding from
// an immutable store serves that exact store as the first snapshot
// (zero rebuild cost) and extends it incrementally from there.
func TestDynamicFromStoreAdoptsSnapshot(t *testing.T) {
	g := testGraph(t)
	svocab := textual.GenerateVocab(3, 8, 1, 11)
	seedStore, err := Generate(g, GenOptions{Count: 30, MeanSamples: 8, Vocab: svocab, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	d := NewDynamicFromStore(seedStore)
	if d.Len() != seedStore.NumTrajectories() {
		t.Fatalf("seeded %d live, want %d", d.Len(), seedStore.NumTrajectories())
	}
	snap, ids := d.Snapshot()
	if snap != seedStore {
		t.Fatal("first snapshot is not the adopted seed store")
	}
	if r, e := d.SnapshotStats(); r != 0 || e != 0 {
		t.Fatalf("adoption cost: rebuilds=%d extensions=%d, want 0/0", r, e)
	}
	if len(ids) != seedStore.NumTrajectories() {
		t.Fatalf("%d snapshot handles, want %d", len(ids), seedStore.NumTrajectories())
	}

	// Extend on top of the adopted base and verify against an oracle
	// rebuilt from the seed's own records plus the new tail.
	var mirror []mirrorTraj
	for i := 0; i < seedStore.NumTrajectories(); i++ {
		tr := seedStore.Traj(TrajID(i))
		mirror = append(mirror, mirrorTraj{samples: tr.Samples, keywords: tr.Keywords})
	}
	extra := mirrorTraj{
		samples:  []Sample{{V: 1, T: 10}, {V: 2, T: 20}},
		keywords: seedStore.Vocab().InternAll([]string{"t0_kw0"}),
	}
	if _, err := d.Add(extra.samples, extra.keywords); err != nil {
		t.Fatal(err)
	}
	mirror = append(mirror, extra)
	grown, _ := d.Snapshot()
	if _, e := d.SnapshotStats(); e != 1 {
		t.Fatalf("extension not used on adopted base (extensions=%d)", e)
	}
	requireStoresIdentical(t, "adopted+extended", grown, buildReference(t, g, seedStore.Vocab(), mirror))
	// The adopted seed snapshot itself must be untouched.
	requireStoresIdentical(t, "seed after extension", seedStore, buildReference(t, g, seedStore.Vocab(), mirror[:len(mirror)-1]))
}
