package roadnet

import (
	"math/rand/v2"
	"testing"

	"uots/internal/geo"
)

// heapOnly returns the vertex state of an edgeless graph on n vertices:
// push, Pop and reset need no adjacency.
func heapOnly(n int) search {
	return newSearch(&Graph{pts: make([]geo.Point, n)})
}

func TestHeapPushIsRelaxAndDecreaseKey(t *testing.T) {
	s := heapOnly(10)
	s.push(3, 5)
	s.push(7, 2)
	s.push(1, 9)
	if s.pos[3] == posAbsent || s.pos[0] != posAbsent {
		t.Fatal("queued set is wrong")
	}
	// A push that does not improve the distance is a no-op; one that does
	// lowers its key. The pop order shows both.
	if s.push(7, 4) {
		t.Fatal("a worse distance reported an improvement")
	}
	if !s.push(1, 1) {
		t.Fatal("a better distance reported no improvement")
	}
	v, key, ok := s.Pop()
	if !ok || v != 1 || key != 1 {
		t.Fatalf("Pop = (%d, %g): decrease-key failed", v, key)
	}
	if s.pos[1] != posAbsent || !s.settled[1] {
		t.Fatal("a popped vertex must leave the queue settled")
	}
	if v, key, ok = s.Pop(); !ok || v != 7 || key != 2 {
		t.Fatalf("Pop = (%d, %g): a worse push should not update", v, key)
	}
}

func TestHeapPopOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 500
	s := heapOnly(n)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.Float64()
		s.push(int32(i), want[i])
	}
	// Randomly decrease half the keys.
	for i := 0; i < n/2; i++ {
		v := int32(rng.IntN(n))
		nd := want[v] * rng.Float64()
		s.push(v, nd)
		want[v] = nd
	}
	prev := -1.0
	count := 0
	for {
		v, key, ok := s.Pop()
		if !ok {
			break
		}
		count++
		if key < prev {
			t.Fatalf("pop order violated: %g after %g", key, prev)
		}
		if key != want[v] || s.dist[v] != want[v] {
			t.Fatalf("vertex %d popped with key %g at distance %g, want %g", v, key, s.dist[v], want[v])
		}
		prev = key
	}
	if count != n {
		t.Fatalf("popped %d of %d", count, n)
	}
}

func TestHeapReset(t *testing.T) {
	s := heapOnly(8)
	for i := int32(0); i < 8; i++ {
		s.push(i, float64(8-i))
	}
	s.Pop()
	s.reset()
	if len(s.keys) != 0 || len(s.touched) != 0 {
		t.Fatalf("after reset: %d queued, %d touched", len(s.keys), len(s.touched))
	}
	for v := range s.dist {
		if s.pos[v] != posAbsent || s.settled[v] || s.dist[v] != Unreachable {
			t.Fatalf("vertex %d keeps state after reset", v)
		}
	}
	s.push(4, 1)
	if v, _, _ := s.Pop(); v != 4 {
		t.Fatal("heap unusable after reset")
	}
}

// TestHeapInterleavedMatchesReference mixes pushes, decrease-keys, pops
// and resets against a map-based reference.
func TestHeapInterleavedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(204, 4))
	const n = 64
	for trial := 0; trial < 30; trial++ {
		s := heapOnly(n)
		dist := make(map[int32]float64)   // best distance pushed since the last reset
		queued := make(map[int32]float64) // vertex → key, for queued vertices
		for op := 0; op < 500; op++ {
			switch r := rng.IntN(30); {
			case r == 0: // reset
				s.reset()
				clear(dist)
				clear(queued)
			case r < 20: // push or decrease-key
				v := int32(rng.IntN(n))
				d := rng.Float64() * 10
				old, seen := dist[v]
				want := !seen || d < old
				if got := s.push(v, d); got != want {
					t.Fatalf("trial %d op %d: push(%d, %g) improved=%v, reference %v", trial, op, v, d, got, want)
				}
				if want {
					dist[v] = d
					queued[v] = d
				}
			case len(queued) > 0: // pop must return the reference minimum
				v, key, ok := s.Pop()
				if !ok {
					t.Fatalf("trial %d op %d: Pop failed with %d vertices in reference", trial, op, len(queued))
				}
				want, inRef := queued[v]
				if !inRef || key != want {
					t.Fatalf("trial %d op %d: popped (%d,%g), reference has (%v,%g)", trial, op, v, key, inRef, want)
				}
				for _, rk := range queued {
					if rk < key {
						t.Fatalf("trial %d op %d: popped %g but reference holds smaller %g", trial, op, key, rk)
					}
				}
				delete(queued, v)
			}
			if len(s.keys) != len(queued) || len(s.touched) != len(dist) {
				t.Fatalf("trial %d op %d: %d queued / %d touched, reference %d / %d",
					trial, op, len(s.keys), len(s.touched), len(queued), len(dist))
			}
			for v, d := range queued {
				if s.pos[v] == posAbsent {
					t.Fatalf("trial %d op %d: vertex %d missing", trial, op, v)
				}
				if e := s.keys[s.pos[v]]; e != (heapEntry{d, v}) {
					t.Fatalf("trial %d op %d: vertex %d's heap entry is %+v, reference key %g", trial, op, v, e, d)
				}
			}
			least := Unreachable
			for _, k := range queued {
				least = min(least, k)
			}
			if got := s.minKey(); got != least {
				t.Fatalf("trial %d op %d: minKey %g, reference %g", trial, op, got, least)
			}
		}
	}
}
