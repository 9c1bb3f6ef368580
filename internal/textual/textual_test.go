package textual

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Food", "food"},
		{"  Street Food  ", "streetfood"},
		{"café", "café"},
		{"live-music", "live-music"},
		{"a_b", "a_b"},
		{"!!!", ""},
		{"", ""},
		{"ROCK'N'ROLL", "rocknroll"},
		{"kw42", "kw42"},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("lakeside dinner, Live Jazz! river-walk")
	want := []string{"lakeside", "dinner", "live", "jazz", "river-walk"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokenize = %v, want %v", got, want)
	}
	if got := Tokenize("  ,,, !!"); len(got) != 0 {
		t.Errorf("Tokenize(punct) = %v", got)
	}
}

func TestVocabIntern(t *testing.T) {
	v := NewVocab()
	id1, ok := v.Intern("Food")
	if !ok || id1 != 0 {
		t.Fatalf("first intern = (%d, %v)", id1, ok)
	}
	id2, ok := v.Intern("food") // same after normalization
	if !ok || id2 != id1 {
		t.Fatalf("re-intern = %d, want %d", id2, id1)
	}
	id3, _ := v.Intern("market")
	if id3 != 1 {
		t.Fatalf("second term id = %d", id3)
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d", v.Size())
	}
	if _, ok := v.Intern("!!!"); ok {
		t.Error("empty-normalizing keyword should fail")
	}
	if got, ok := v.Lookup("FOOD"); !ok || got != id1 {
		t.Errorf("Lookup = (%d, %v)", got, ok)
	}
	if _, ok := v.Lookup("absent"); ok {
		t.Error("Lookup of absent term should fail")
	}
	if term, ok := v.Term(0); !ok || term != "food" {
		t.Errorf("Term(0) = (%q, %v)", term, ok)
	}
	if _, ok := v.Term(99); ok {
		t.Error("Term(99) should fail")
	}
	set := v.InternAll([]string{"food", "Market", "food", "???"})
	if len(set) != 2 {
		t.Fatalf("InternAll = %v", set)
	}
	// LookupAll stores nothing: known words keep their IDs, each distinct
	// unknown word gets its own negative one.
	got := v.LookupAll([]string{"Market", "ghost", "food", "phantom", "GHOST", "???"})
	if want := (TermSet{-2, -1, 0, 1}); !reflect.DeepEqual(got, want) {
		t.Errorf("LookupAll = %v, want %v", got, want)
	}
	if v.Size() != 2 {
		t.Errorf("LookupAll grew the vocabulary to %d terms", v.Size())
	}
}

func TestNewTermSetSortsAndDedups(t *testing.T) {
	s := NewTermSet([]TermID{5, 1, 5, 3, 1})
	want := TermSet{1, 3, 5}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("NewTermSet = %v", s)
	}
	if NewTermSet(nil) != nil {
		t.Error("empty input should give nil set")
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains wrong")
	}
}

func TestSetSimilarities(t *testing.T) {
	a := NewTermSet([]TermID{1, 2, 3})
	b := NewTermSet([]TermID{2, 3, 4, 5})
	if got := a.IntersectionSize(b); got != 2 {
		t.Fatalf("IntersectionSize = %d", got)
	}
	if got := Jaccard(a, b); math.Abs(got-2.0/5.0) > 1e-12 {
		t.Errorf("Jaccard = %g", got)
	}
	if Jaccard(nil, nil) != 0 || Jaccard(nil, a) != 0 {
		t.Error("empty-set similarities should be 0")
	}
	if Jaccard(a, a) != 1 {
		t.Error("self similarity should be 1")
	}
}

func TestSimilarityPropertiesQuick(t *testing.T) {
	mk := func(raw []uint8) TermSet {
		ids := make([]TermID, len(raw))
		for i, r := range raw {
			ids[i] = TermID(r % 32)
		}
		return NewTermSet(ids)
	}
	f := func(ra, rb []uint8) bool {
		a, b := mk(ra), mk(rb)
		j1, j2 := Jaccard(a, b), Jaccard(b, a)
		return j1 == j2 && // symmetry
			j1 >= 0 && j1 <= 1 // range
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func buildIndex(t *testing.T, docs []TermSet) *Index {
	t.Helper()
	ix := NewIndex()
	for i, d := range docs {
		ix.Add(DocID(i), d)
	}
	ix.Freeze()
	return ix
}

func TestIndexPostingsAndDocsWithAny(t *testing.T) {
	docs := []TermSet{
		NewTermSet([]TermID{1, 2}),
		NewTermSet([]TermID{2, 3}),
		NewTermSet([]TermID{4}),
		nil,
		NewTermSet([]TermID{1, 4}),
	}
	ix := buildIndex(t, docs)
	if ix.NumDocs() != 5 {
		t.Fatalf("NumDocs = %d", ix.NumDocs())
	}
	if got := ix.Postings(2); !reflect.DeepEqual(got, []DocID{0, 1}) {
		t.Errorf("Postings(2) = %v", got)
	}
	if ix.DocFreq(4) != 2 || ix.DocFreq(9) != 0 {
		t.Error("DocFreq wrong")
	}
	got := ix.DocsWithAny(NewTermSet([]TermID{1, 4}))
	if !reflect.DeepEqual(got, []DocID{0, 2, 4}) {
		t.Errorf("DocsWithAny = %v", got)
	}
	if got := ix.DocsWithAny(nil); got != nil {
		t.Errorf("DocsWithAny(nil) = %v", got)
	}
	if got := ix.DocsWithAny(NewTermSet([]TermID{9})); len(got) != 0 {
		t.Errorf("DocsWithAny(missing) = %v", got)
	}
	// Single-term fast path returns a copy, not the posting list itself.
	single := ix.DocsWithAny(NewTermSet([]TermID{2}))
	single[0] = 99
	if ix.Postings(2)[0] == 99 {
		t.Error("DocsWithAny aliases postings")
	}
}

func TestDocsWithAnyMatchesBruteProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for trial := 0; trial < 50; trial++ {
		nDocs := 1 + rng.IntN(60)
		docs := make([]TermSet, nDocs)
		for i := range docs {
			raw := make([]TermID, rng.IntN(6))
			for j := range raw {
				raw[j] = TermID(rng.IntN(20))
			}
			docs[i] = NewTermSet(raw)
		}
		ix := buildIndex(t, docs)
		qraw := make([]TermID, 1+rng.IntN(4))
		for j := range qraw {
			qraw[j] = TermID(rng.IntN(20))
		}
		q := NewTermSet(qraw)
		got := ix.DocsWithAny(q)
		var want []DocID
		for i, d := range docs {
			if d.IntersectionSize(q) > 0 {
				want = append(want, DocID(i))
			}
		}
		if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("trial %d: DocsWithAny = %v, want %v", trial, got, want)
		}
	}
}

func TestIndexAddPanics(t *testing.T) {
	ix := NewIndex()
	ix.Add(0, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-order Add should panic")
			}
		}()
		ix.Add(5, nil)
	}()
	ix.Freeze()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add after Freeze should panic")
			}
		}()
		ix.Add(1, nil)
	}()
}

func TestScoreAll(t *testing.T) {
	docs := []TermSet{
		NewTermSet([]TermID{1, 2}),
		NewTermSet([]TermID{3}),
		NewTermSet([]TermID{1, 2, 3}),
	}
	ix := buildIndex(t, docs)
	q := NewTermSet([]TermID{1, 2})
	ds, scores := ix.ScoreAll(q, Jaccard)
	if len(ds) != 2 || ds[0] != 0 || ds[1] != 2 {
		t.Fatalf("ScoreAll docs = %v", ds)
	}
	if scores[0] != 1 || math.Abs(scores[1]-2.0/3.0) > 1e-12 {
		t.Fatalf("ScoreAll scores = %v", scores)
	}
}

func TestGenerateVocab(t *testing.T) {
	sv := GenerateVocab(5, 30, 1.0, 99)
	if sv.NumTopics() != 5 {
		t.Fatalf("NumTopics = %d", sv.NumTopics())
	}
	if sv.Vocab.Size() != 150 {
		t.Fatalf("vocab size = %d", sv.Vocab.Size())
	}
	rng := rand.New(rand.NewPCG(1, 2))
	// Topic focus: most drawn terms should come from the home topic.
	home := 0
	homeTerms := map[TermID]bool{}
	for _, id := range sv.Topics[home] {
		homeTerms[id] = true
	}
	inHome, total := 0, 0
	for i := 0; i < 200; i++ {
		set := sv.DrawTermSet(home, 5, 0.9, rng)
		for _, id := range set {
			total++
			if homeTerms[id] {
				inHome++
			}
		}
	}
	if frac := float64(inHome) / float64(total); frac < 0.75 {
		t.Errorf("home-topic fraction %.2f, want ≥ 0.75 at focus 0.9", frac)
	}
	// Zipf skew: the rank-0 term should be drawn much more often than the
	// last-rank term.
	counts := map[TermID]int{}
	for i := 0; i < 5000; i++ {
		for _, id := range sv.DrawTermSet(1, 1, 1.0, rng) {
			counts[id]++
		}
	}
	first := counts[sv.Topics[1][0]]
	last := counts[sv.Topics[1][29]]
	if first < 5*last {
		t.Errorf("Zipf skew too weak: rank0=%d rank29=%d", first, last)
	}
	// Determinism of the universe itself.
	sv2 := GenerateVocab(5, 30, 1.0, 99)
	for tp := range sv.Topics {
		if !reflect.DeepEqual(sv.Topics[tp], sv2.Topics[tp]) {
			t.Fatal("same seed, different topics")
		}
	}
}

func TestGenerateVocabPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateVocab(0, ...) should panic")
		}
	}()
	GenerateVocab(0, 10, 1, 1)
}

func TestIndexExtend(t *testing.T) {
	ix := NewIndex()
	ix.Add(0, NewTermSet([]TermID{1, 2}))
	ix.Add(1, NewTermSet([]TermID{2, 3}))
	ix.Freeze()

	ext := ix.Extend([]TermSet{
		NewTermSet([]TermID{2}),
		NewTermSet([]TermID{4}),
		nil,
	})
	if ext.NumDocs() != 5 {
		t.Fatalf("extended NumDocs = %d, want 5", ext.NumDocs())
	}
	wantExt := map[TermID][]DocID{1: {0}, 2: {0, 1, 2}, 3: {1}, 4: {3}}
	for term, want := range wantExt {
		if got := ext.Postings(term); !reflect.DeepEqual(got, want) {
			t.Errorf("extended postings[%d] = %v, want %v", term, got, want)
		}
	}
	// The base index is untouched: same doc count, same postings, even
	// for the term the extension appended to.
	if ix.NumDocs() != 2 {
		t.Fatalf("base NumDocs changed to %d", ix.NumDocs())
	}
	wantBase := map[TermID][]DocID{1: {0}, 2: {0, 1}, 3: {1}}
	for term, want := range wantBase {
		if got := ix.Postings(term); !reflect.DeepEqual(got, want) {
			t.Errorf("base postings[%d] = %v, want %v (extension leaked)", term, got, want)
		}
	}
	if got := ix.Postings(4); got != nil {
		t.Errorf("base postings[4] = %v, want nil", got)
	}
	// Untouched lists are shared (the whole point of the COW scheme):
	// term 3 appears in no new document, so the internal slices alias.
	// Asserted on the internal fields — the public Postings accessor
	// returns defensive copies precisely so this sharing is unobservable.
	if len(ix.postings[3]) > 0 && len(ext.postings[3]) > 0 && &ix.postings[3][0] != &ext.postings[3][0] {
		t.Error("untouched posting list was copied, not shared")
	}
	// Extending twice from the same base must not clobber the sibling.
	sib := ix.Extend([]TermSet{NewTermSet([]TermID{2, 3})})
	if got, want := sib.Postings(2), []DocID{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("sibling postings[2] = %v, want %v", got, want)
	}
	if got, want := ext.Postings(2), []DocID{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("first extension postings[2] = %v after sibling extension, want %v", got, want)
	}
}

// TestAccessorMutationSafety is the regression for the aliased-internal-
// slice bug class: Postings and DocTerms hand out defensive copies, so a
// caller sorting or overwriting the returned slice cannot corrupt the
// index (or, through COW extension sharing, any other MVCC generation).
func TestAccessorMutationSafety(t *testing.T) {
	ix := NewIndex()
	ix.Add(0, NewTermSet([]TermID{1, 2}))
	ix.Add(1, NewTermSet([]TermID{2, 3}))
	ix.Freeze()

	p := ix.Postings(2)
	p[0], p[1] = 999, 998
	if got, want := ix.Postings(2), []DocID{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("mutating a returned posting list changed the index: %v, want %v", got, want)
	}
	dt := ix.DocTerms(1)
	dt[0] = 777
	if got, want := ix.DocTerms(1), NewTermSet([]TermID{2, 3}); !reflect.DeepEqual(got, want) {
		t.Errorf("mutating a returned term set changed the index: %v, want %v", got, want)
	}
	if ix.DocFreq(2) != 2 || ix.DocFreq(777) != 0 {
		t.Errorf("doc frequencies shifted after caller mutation: df(2)=%d df(777)=%d",
			ix.DocFreq(2), ix.DocFreq(777))
	}
}

// TestExtendCopiesCallerTermSets: Extend deep-copies the term sets it is
// handed, so a caller that reuses its decode buffer (the WAL replay loop
// does) cannot mutate a published generation after the fact.
func TestExtendCopiesCallerTermSets(t *testing.T) {
	ix := NewIndex()
	ix.Add(0, NewTermSet([]TermID{1, 2}))
	ix.Freeze()

	buf := NewTermSet([]TermID{4, 6})
	ext := ix.Extend([]TermSet{buf})
	buf[0], buf[1] = 50, 60 // caller reuses its buffer
	if got, want := ext.DocTerms(1), NewTermSet([]TermID{4, 6}); !reflect.DeepEqual(got, want) {
		t.Errorf("extension aliases the caller's buffer: DocTerms = %v, want %v", got, want)
	}
	if ext.DocFreq(50) != 0 || ext.DocFreq(4) != 1 {
		t.Errorf("buffer reuse leaked into postings: df(50)=%d df(4)=%d",
			ext.DocFreq(50), ext.DocFreq(4))
	}
	// Cross-generation: mutating a term set read from the extension must
	// not reach the base generation's copy of the shared document.
	et := ext.DocTerms(0)
	if len(et) == 0 {
		t.Fatal("extension lost the inherited document")
	}
	et[0] = 888
	if got, want := ix.DocTerms(0), NewTermSet([]TermID{1, 2}); !reflect.DeepEqual(got, want) {
		t.Errorf("mutation through the extension corrupted the base generation: %v, want %v", got, want)
	}
}

func TestIndexExtendUnfrozenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Extend of an unfrozen index should panic")
		}
	}()
	NewIndex().Extend(nil)
}
