package trajdb

import (
	"errors"
	"sync"
	"testing"

	"uots/internal/textual"
)

func TestDynamicAddRemoveSnapshot(t *testing.T) {
	g := testGraph(t)
	vocab := textual.NewVocab()
	d := NewDynamic(g, vocab)

	a, err := d.AddWithKeywords([]Sample{{V: 1, T: 100}, {V: 2, T: 200}}, []string{"food"})
	if err != nil {
		t.Fatal(err)
	}
	bID, err := d.AddWithKeywords([]Sample{{V: 3, T: 300}}, []string{"art"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := d.AddWithKeywords([]Sample{{V: 4, T: 400}}, []string{"food", "art"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}

	snap, ids := d.Snapshot()
	if snap.NumTrajectories() != 3 || len(ids) != 3 {
		t.Fatalf("snapshot has %d trajectories", snap.NumTrajectories())
	}
	if ids[0] != a || ids[1] != bID || ids[2] != c {
		t.Fatalf("mapping = %v", ids)
	}

	// Snapshot is cached while unmodified.
	snap2, _ := d.Snapshot()
	if snap2 != snap {
		t.Error("unchanged store should reuse the snapshot")
	}

	// Remove the middle trajectory: snapshot compacts, handles stay.
	if !d.Remove(bID) {
		t.Fatal("Remove(b) failed")
	}
	if d.Remove(bID) {
		t.Error("double remove succeeded")
	}
	snap3, ids3 := d.Snapshot()
	if snap3 == snap {
		t.Fatal("mutation must invalidate the snapshot")
	}
	if snap3.NumTrajectories() != 2 || ids3[0] != a || ids3[1] != c {
		t.Fatalf("post-remove mapping = %v", ids3)
	}
	// The old snapshot still reads consistently.
	if snap.NumTrajectories() != 3 {
		t.Error("old snapshot mutated")
	}

	// Get by handle.
	if tr, ok := d.Get(a); !ok || tr.Samples[0].V != 1 {
		t.Error("Get(a) wrong")
	}
	if _, ok := d.Get(bID); ok {
		t.Error("Get(removed) succeeded")
	}
}

func TestDynamicValidation(t *testing.T) {
	g := testGraph(t)
	d := NewDynamic(g, nil)
	if _, err := d.Add(nil, nil); err == nil {
		t.Error("empty trajectory accepted")
	}
	if _, err := d.Add([]Sample{{V: 99999, T: 0}}, nil); err == nil {
		t.Error("bad vertex accepted")
	}
	if _, err := d.AddWithKeywords([]Sample{{V: 0, T: 0}}, []string{"x"}); err == nil {
		t.Error("AddWithKeywords without vocab accepted")
	}
	// A group is all or nothing: one bad member and nothing enters the
	// store, nor does the generation move.
	d = NewDynamic(g, textual.NewVocab())
	group := [][]Sample{{{V: 0, T: 0}}, {{V: 99999, T: 0}}, {{V: 1, T: 5}}}
	at := func(i int) ([]Sample, []string) { return group[i], []string{"x"} }
	if _, err := d.AddGroup(len(group), at); !errors.Is(err, ErrVertexRange) {
		t.Errorf("group with a bad vertex: err = %v, want ErrVertexRange", err)
	}
	if d.Len() != 0 || d.Generation() != 0 {
		t.Errorf("refused group left %d live at generation %d", d.Len(), d.Generation())
	}
	group[1] = []Sample{{V: 2, T: 1}}
	if ids, err := d.AddGroup(len(group), at); err != nil || len(ids) != 3 || d.Generation() != 1 {
		t.Errorf("AddGroup = %v, %v at generation %d; want 3 handles, generation 1", ids, err, d.Generation())
	}
}

func TestDynamicConcurrentMutation(t *testing.T) {
	g := testGraph(t)
	d := NewDynamic(g, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			var mine []ExternalID
			for i := 0; i < 50; i++ {
				id, err := d.Add([]Sample{{V: 1, T: float64(base*100 + i)}}, nil)
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, id)
				if i%3 == 0 {
					d.Snapshot()
				}
				if i%5 == 4 {
					d.Remove(mine[0])
					mine = mine[1:]
				}
			}
		}(w)
	}
	wg.Wait()
	snap, ids := d.Snapshot()
	if snap.NumTrajectories() != d.Len() || len(ids) != d.Len() {
		t.Fatalf("final snapshot %d vs live %d", snap.NumTrajectories(), d.Len())
	}
	// All handles unique.
	seen := map[ExternalID]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate handle %d", id)
		}
		seen[id] = true
	}
}
