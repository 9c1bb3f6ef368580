package shard

import (
	"reflect"
	"testing"

	"uots/internal/trajdb"
)

// checkPartitionContract asserts what the gather relies on: n entries,
// every trajectory exactly once, each entry ascending.
func checkPartitionContract(t *testing.T, label string, assignment [][]trajdb.TrajID, n, total int) {
	t.Helper()
	if len(assignment) != n {
		t.Fatalf("%s: %d shards, want %d", label, len(assignment), n)
	}
	seen := make(map[trajdb.TrajID]int, total)
	for s, ids := range assignment {
		for i, id := range ids {
			if i > 0 && ids[i-1] >= id {
				t.Errorf("%s: shard %d not strictly ascending at index %d (%d then %d)", label, s, i, ids[i-1], id)
			}
			if prev, dup := seen[id]; dup {
				t.Errorf("%s: trajectory %d assigned to shards %d and %d", label, id, prev, s)
			}
			seen[id] = s
		}
	}
	if len(seen) != total {
		t.Errorf("%s: %d trajectories assigned, want %d", label, len(seen), total)
	}
	for id := 0; id < total; id++ {
		if _, ok := seen[trajdb.TrajID(id)]; !ok {
			t.Errorf("%s: trajectory %d unassigned", label, id)
		}
	}
}

// skewedAssignments are the hand-built partition functions the
// cross-validation runs beside the hash (Config.assign): layouts no
// uniform hash produces, where the merge and the bound exchange have to
// cope with shards that hold every answer, nothing, or one trajectory.
// hot lists the trajectories "hot-shard" pins to shard 0.
func skewedAssignments(hot map[trajdb.TrajID]bool) map[string]func(trajdb.TrajID, int) int {
	return map[string]func(trajdb.TrajID, int) int{
		// Every hot trajectory on shard 0, the rest hashed over the others.
		"hot-shard": func(id trajdb.TrajID, n int) int {
			if hot[id] || n == 1 {
				return 0
			}
			return 1 + shardOf(id, n-1)
		},
		// Shard 1 holds nothing (nor does any but shard 0 of a two-way split).
		"empty-shard": func(id trajdb.TrajID, n int) int {
			if n <= 2 {
				return 0
			}
			if s := shardOf(id, n-1); s >= 1 {
				return s + 1
			}
			return 0
		},
		// One trajectory per shard when n is the corpus size.
		"round-robin": func(id trajdb.TrajID, n int) int { return int(id) % n },
	}
}

func TestPartitionerContract(t *testing.T) {
	f := testFixture(t)
	total := f.db.NumTrajectories()
	assigns := skewedAssignments(map[trajdb.TrajID]bool{3: true, 77: true, 399: true})
	assigns["hash"] = nil
	for name, assign := range assigns {
		for _, n := range []int{1, 2, 5, 16, total} {
			layout := func() [][]trajdb.TrajID {
				out := make([][]trajdb.TrajID, n)
				for i := range out {
					out[i] = shardIDs(total, n, i, assign)
				}
				return out
			}
			a := layout()
			checkPartitionContract(t, name, a, n, total)
			// Determinism: a second run must produce the identical layout.
			if b := layout(); !reflect.DeepEqual(a, b) {
				t.Errorf("%s/n=%d: two runs produced different assignments", name, n)
			}
		}
	}
}

func TestHashPartitionerBalance(t *testing.T) {
	f := testFixture(t)
	total := f.db.NumTrajectories()
	const n = 4
	for s := 0; s < n; s++ {
		// A uniform hash over 400 trajectories should put roughly 100 per
		// shard; a shard under a quarter of its fair share signals a
		// broken hash.
		if ids := shardIDs(total, n, s, nil); len(ids) < total/n/4 {
			t.Errorf("shard %d holds %d of %d trajectories — hash is badly skewed", s, len(ids), total)
		}
	}
}
