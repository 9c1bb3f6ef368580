package pqueue

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// Interleaved push/pop property tests: every queue in this package is
// exercised against a naive reference model under adversarial random
// operation sequences (the shard merger and the scatter-gather paths
// interleave offers and drains rather than doing one bulk load), with
// the heap invariant checked after every mutation.

// checkMinInvariant verifies the binary-heap ordering of a Min queue.
func checkMinInvariant[T any](t *testing.T, q *Min[T]) {
	t.Helper()
	for i := 1; i < len(q.items); i++ {
		parent := (i - 1) / 2
		if q.items[parent].prio > q.items[i].prio {
			t.Fatalf("heap invariant broken: items[%d].prio=%g > items[%d].prio=%g",
				parent, q.items[parent].prio, i, q.items[i].prio)
		}
	}
}

// checkTopKInvariant verifies the min-heap-on-weakness ordering of a
// TopK collector (the root is the weakest kept item).
func checkTopKInvariant[T any](t *testing.T, tk *TopK[T]) {
	t.Helper()
	for i := 1; i < len(tk.items); i++ {
		parent := (i - 1) / 2
		if weaker(tk.items[i], tk.items[parent]) {
			t.Fatalf("topk invariant broken: items[%d] weaker than its parent", i)
		}
	}
}

func TestMinInterleavedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 1))
	for trial := 0; trial < 50; trial++ {
		var q Min[int]
		var ref []float64 // sorted ascending: ref[0] is the model's min
		next := 0
		for op := 0; op < 400; op++ {
			// Push-biased early, drain-biased late, with duplicate
			// priorities forced so equal keys interleave.
			if rng.IntN(3) != 0 || len(ref) == 0 {
				p := float64(rng.IntN(40)) / 8
				q.Push(p, next)
				next++
				at := sort.SearchFloat64s(ref, p)
				ref = append(ref, 0)
				copy(ref[at+1:], ref[at:])
				ref[at] = p
			} else {
				p, _, ok := q.Pop()
				if !ok {
					t.Fatalf("trial %d op %d: Pop failed with %d queued", trial, op, len(ref))
				}
				if p != ref[0] {
					t.Fatalf("trial %d op %d: popped prio %g, reference min %g", trial, op, p, ref[0])
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d op %d: Len=%d, reference %d", trial, op, q.Len(), len(ref))
			}
			checkMinInvariant(t, &q)
			if len(ref) > 0 {
				if p, _, ok := q.Peek(); !ok || p != ref[0] {
					t.Fatalf("trial %d op %d: Peek=%g, reference min %g", trial, op, p, ref[0])
				}
			}
		}
		// Drain: remaining pops must come out exactly sorted.
		for len(ref) > 0 {
			p, _, ok := q.Pop()
			if !ok || p != ref[0] {
				t.Fatalf("trial %d drain: popped (%g,%v), want %g", trial, p, ok, ref[0])
			}
			ref = ref[1:]
		}
		if _, _, ok := q.Pop(); ok {
			t.Fatalf("trial %d: Pop succeeded on empty queue", trial)
		}
	}
}

func TestMaxInterleavedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(202, 2))
	for trial := 0; trial < 20; trial++ {
		var q Max[int]
		var ref []float64 // sorted ascending: last is the model's max
		for op := 0; op < 300; op++ {
			if rng.IntN(3) != 0 || len(ref) == 0 {
				p := float64(rng.IntN(32)) / 4
				q.Push(p, op)
				at := sort.SearchFloat64s(ref, p)
				ref = append(ref, 0)
				copy(ref[at+1:], ref[at:])
				ref[at] = p
			} else {
				p, _, ok := q.Pop()
				want := ref[len(ref)-1]
				if !ok || p != want {
					t.Fatalf("trial %d op %d: popped (%g,%v), reference max %g", trial, op, p, ok, want)
				}
				ref = ref[:len(ref)-1]
			}
			checkMinInvariant(t, &q.inner)
		}
	}
}

// TestTopKInterleavedOffersAndResults drives a TopK collector with
// adversarial offer sequences — duplicate scores, NaN-free extremes,
// interleaved Results() calls (which must not disturb the collection) —
// against a sort-based reference.
func TestTopKInterleavedOffersAndResults(t *testing.T) {
	rng := rand.New(rand.NewPCG(203, 3))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.IntN(12)
		tk := NewTopK[int64](k)
		type item struct {
			score float64
			id    int64
		}
		var all []item
		nOps := 50 + rng.IntN(300)
		for op := 0; op < nOps; op++ {
			score := float64(rng.IntN(20)) / 20 // dense ties
			if rng.IntN(16) == 0 {
				score = math.Inf(1) // extremes must not corrupt ordering
			}
			id := int64(op)
			if rng.IntN(8) == 0 && len(all) > 0 {
				id = all[rng.IntN(len(all))].id // duplicate tiebreak values
			}
			tk.Offer(score, id, id)
			all = append(all, item{score, id})
			checkTopKInvariant(t, tk)

			if rng.IntN(10) != 0 {
				continue
			}
			// Mid-stream Results() must match the reference and leave the
			// collector intact.
			ref := make([]item, len(all))
			copy(ref, all)
			sort.Slice(ref, func(a, b int) bool {
				if ref[a].score != ref[b].score {
					return ref[a].score > ref[b].score
				}
				return ref[a].id < ref[b].id
			})
			want := k
			if len(ref) < k {
				want = len(ref)
			}
			got := tk.Results()
			if len(got) != want {
				t.Fatalf("trial %d op %d: %d results, want %d", trial, op, len(got), want)
			}
			for i := 0; i < want; i++ {
				if got[i] != ref[i].id {
					t.Fatalf("trial %d op %d rank %d: got id %d, want %d (score %g)",
						trial, op, i, got[i], ref[i].id, ref[i].score)
				}
			}
			checkTopKInvariant(t, tk)
		}
	}
}
