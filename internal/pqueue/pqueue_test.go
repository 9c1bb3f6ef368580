package pqueue

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinBasic(t *testing.T) {
	var q Min[string]
	if _, _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue should fail")
	}
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	if p, v, ok := q.Peek(); !ok || p != 1 || v != "a" {
		t.Fatalf("Peek = (%g, %q, %v)", p, v, ok)
	}
	want := []string{"a", "b", "c"}
	for _, w := range want {
		_, v, ok := q.Pop()
		if !ok || v != w {
			t.Fatalf("Pop = %q, want %q", v, w)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestMinSortsProperty(t *testing.T) {
	f := func(prios []float64) bool {
		var q Min[int]
		for i, p := range prios {
			q.Push(p, i)
		}
		var popped []float64
		for {
			p, _, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, p)
		}
		if len(popped) != len(prios) {
			return false
		}
		return sort.Float64sAreSorted(popped)
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMinReset(t *testing.T) {
	var q Min[int]
	for i := 0; i < 10; i++ {
		q.Push(float64(10-i), i)
	}
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	q.Push(5, 1)
	q.Push(2, 2)
	if _, v, _ := q.Pop(); v != 2 {
		t.Fatal("queue unusable after Reset")
	}
}

func TestMaxBasic(t *testing.T) {
	var q Max[int]
	for _, p := range []float64{0.3, 0.9, 0.1, 0.5} {
		q.Push(p, int(p*10))
	}
	if p, v, ok := q.Peek(); !ok || p != 0.9 || v != 9 {
		t.Fatalf("Peek = (%g, %d, %v)", p, v, ok)
	}
	var prev = 2.0
	for {
		p, _, ok := q.Pop()
		if !ok {
			break
		}
		if p > prev {
			t.Fatalf("max heap popped %g after %g", p, prev)
		}
		prev = p
	}
}

func TestTopKKeepsBest(t *testing.T) {
	tk := NewTopK[int](3)
	if tk.K() != 3 {
		t.Fatalf("K = %d", tk.K())
	}
	if _, ok := tk.Threshold(); ok {
		t.Fatal("threshold should not exist before full")
	}
	scores := []float64{0.5, 0.9, 0.1, 0.7, 0.3, 0.8}
	for i, s := range scores {
		tk.Offer(s, int64(i), i)
	}
	if th, ok := tk.Threshold(); !ok || th != 0.7 {
		t.Fatalf("Threshold = (%g, %v), want 0.7", th, ok)
	}
	got := tk.Results()
	want := []int{1, 5, 3} // scores 0.9, 0.8, 0.7
	if len(got) != len(want) {
		t.Fatalf("Results len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Results[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTopKTieBreaksTowardSmallerID(t *testing.T) {
	tk := NewTopK[int](2)
	tk.Offer(0.5, 9, 9)
	tk.Offer(0.5, 3, 3)
	tk.Offer(0.5, 7, 7)
	tk.Offer(0.5, 1, 1)
	got := tk.Results()
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("tie results = %v, want [1 3]", got)
	}
}

func TestTopKRejectsWeaker(t *testing.T) {
	tk := NewTopK[string](1)
	if !tk.Offer(0.5, 1, "first") {
		t.Fatal("first offer must be kept")
	}
	if tk.Offer(0.4, 2, "weaker") {
		t.Fatal("weaker offer must be rejected")
	}
	if tk.Offer(0.5, 2, "tied, larger id") {
		t.Fatal("equal-score larger-id offer must be rejected")
	}
	if !tk.Offer(0.5, 0, "tied, smaller id") {
		t.Fatal("equal-score smaller-id offer must be kept")
	}
	if got := tk.Results(); len(got) != 1 || got[0] != "tied, smaller id" {
		t.Fatalf("Results = %v", got)
	}
}

func TestTopKMatchesSortProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.IntN(200)
		k := 1 + rng.IntN(20)
		scores := make([]float64, n)
		tk := NewTopK[int](k)
		for i := range scores {
			scores[i] = float64(rng.IntN(50)) / 50 // force ties
			tk.Offer(scores[i], int64(i), i)
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if scores[idx[a]] != scores[idx[b]] {
				return scores[idx[a]] > scores[idx[b]]
			}
			return idx[a] < idx[b]
		})
		wantLen := k
		if n < k {
			wantLen = n
		}
		got := tk.Results()
		if len(got) != wantLen {
			t.Fatalf("Results len = %d, want %d", len(got), wantLen)
		}
		for i := 0; i < wantLen; i++ {
			if got[i] != idx[i] {
				t.Fatalf("trial %d rank %d: got %d (%.2f), want %d (%.2f)",
					trial, i, got[i], scores[got[i]], idx[i], scores[idx[i]])
			}
		}
	}
}

func TestNewTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) should panic")
		}
	}()
	NewTopK[int](0)
}
