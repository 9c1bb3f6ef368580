package trajdb

import (
	"testing"

	"uots/internal/textual"
)

// TestAliasedSliceContracts pins the documented aliasing contracts of the
// three hot-path accessors that return internal slices without a copy:
// TrajsAtVertex (expansion scan), Keywords (per-candidate scoring) and
// UniqueVertices (text probes). All three are shared across MVCC
// snapshot extensions, so a caller mutating any of them would corrupt
// every generation at once — the accessors' doc comments forbid it, and
// this test makes the sharing itself observable so a silent change to
// the contract (either direction: an accidental defensive copy on the
// hot path, or the extension ceasing to share) fails loudly and gets
// decided on purpose.
func TestAliasedSliceContracts(t *testing.T) {
	g := testGraph(t)
	vocab := textual.NewVocab()
	d := NewDynamic(g, vocab)

	if _, err := d.AddWithKeywords([]Sample{{V: 1, T: 100}, {V: 2, T: 200}}, []string{"food"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddWithKeywords([]Sample{{V: 3, T: 300}}, []string{"art"}); err != nil {
		t.Fatal(err)
	}
	base, _ := d.Snapshot()

	// The accessors alias the store's internals — no copy on the hot path.
	if got := base.TrajsAtVertex(1); len(got) == 0 || &got[0] != &base.vertexIx[1][0] {
		t.Fatal("TrajsAtVertex no longer aliases the internal posting list")
	}
	if got := base.Keywords(0); len(got) == 0 || &got[0] != &base.trajs[0].Keywords[0] {
		t.Fatal("Keywords no longer aliases the internal term set")
	}
	if got := base.UniqueVertices(0); len(got) == 0 || &got[0] != &base.vertsOf[0][0] {
		t.Fatal("UniqueVertices no longer aliases the internal vertex list")
	}

	// Extend the live set so the next snapshot takes the add-only path.
	if _, err := d.AddWithKeywords([]Sample{{V: 3, T: 500}, {V: 4, T: 600}}, []string{"food"}); err != nil {
		t.Fatal(err)
	}
	ext, _ := d.Snapshot()
	if _, extensions := d.SnapshotStats(); extensions == 0 {
		t.Fatal("second snapshot did not take the extension fast path")
	}

	// Posting lists for vertices the new trajectory never touches are
	// shared between generations...
	if bl, el := base.TrajsAtVertex(1), ext.TrajsAtVertex(1); &bl[0] != &el[0] {
		t.Error("untouched posting list not shared across snapshot extension")
	}
	// ...while touched ones are unshared before the append, so the old
	// generation cannot observe the new trajectory.
	bl, el := base.TrajsAtVertex(3), ext.TrajsAtVertex(3)
	if &bl[0] == &el[0] {
		t.Error("extension appended to a posting list the old generation can see")
	}
	if len(bl) != 1 || len(el) != 2 {
		t.Errorf("posting lengths: base %d (want 1), ext %d (want 2)", len(bl), len(el))
	}

	// Keyword term sets are shared across generations too (the extension
	// copies trajectory headers, not payloads).
	if bk, ek := base.Keywords(0), ext.Keywords(0); &bk[0] != &ek[0] {
		t.Error("keyword term set not shared across snapshot extension")
	}
	if bv, ev := base.UniqueVertices(0), ext.UniqueVertices(0); &bv[0] != &ev[0] {
		t.Error("unique vertex list not shared across snapshot extension")
	}
}
