package textual

import (
	"math/rand/v2"
	"testing"
)

func benchCorpus(b *testing.B) (*Index, []TermSet) {
	b.Helper()
	sv := GenerateVocab(12, 80, 1.0, 1)
	rng := rand.New(rand.NewPCG(2, 3))
	ix := NewIndex()
	const docs = 20000
	for d := 0; d < docs; d++ {
		ix.Add(DocID(d), sv.DrawTermSet(rng.IntN(12), 5, 0.8, rng))
	}
	ix.Freeze()
	queries := make([]TermSet, 64)
	for i := range queries {
		queries[i] = sv.DrawQueryTerms(rng.IntN(12), 3, 0.8, rng)
	}
	return ix, queries
}

func BenchmarkDocsWithAny(b *testing.B) {
	ix, queries := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.DocsWithAny(queries[i%len(queries)])
	}
}

func BenchmarkScoreAllJaccard(b *testing.B) {
	ix, queries := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ScoreAll(queries[i%len(queries)], Jaccard)
	}
}

func BenchmarkJaccardPair(b *testing.B) {
	s := NewTermSet([]TermID{1, 5, 9, 13, 17})
	t := NewTermSet([]TermID{5, 9, 21, 33})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Jaccard(s, t)
	}
}
