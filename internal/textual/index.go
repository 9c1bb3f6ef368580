package textual

import (
	"sort"
)

// DocID identifies a document (a trajectory, in this system) in an
// inverted Index. The trajectory store guarantees density: documents are
// numbered 0..n-1.
type DocID int32

// Index is a keyword inverted index: for each term, the ascending list of
// documents containing it. It answers "which trajectories share at least
// one keyword with the query" and computes exact textual scores for
// exactly those documents — the textual-domain access path of the UOTS
// engine.
//
// Build with Add calls followed by Freeze; a frozen Index is immutable and
// safe for concurrent use.
type Index struct {
	postings map[TermID][]DocID
	docTerms []TermSet // by DocID
	frozen   bool
	numDocs  int
}

// NewIndex returns an empty inverted index.
func NewIndex() *Index {
	return &Index{postings: make(map[TermID][]DocID)}
}

// Add registers a document and its term set. Documents must be added in
// ascending DocID order starting from 0. Add panics on out-of-order IDs or
// after Freeze, since both indicate a programming error in the loader.
func (ix *Index) Add(doc DocID, terms TermSet) {
	if ix.frozen {
		panic("textual: Add after Freeze")
	}
	if int(doc) != ix.numDocs {
		panic("textual: documents must be added densely in order")
	}
	ix.numDocs++
	ix.docTerms = append(ix.docTerms, terms)
	for _, t := range terms {
		ix.postings[t] = append(ix.postings[t], doc)
	}
}

// Freeze makes the index immutable. Postings are already sorted because
// Add enforces ascending DocID order.
func (ix *Index) Freeze() { ix.frozen = true }

// Extend returns a new frozen Index covering ix's documents plus docs
// appended densely after them, without touching ix: readers holding the
// old index keep a consistent view while the new one serves the grown
// corpus — the incremental maintenance path of an add-only snapshot
// extension. Posting lists of terms absent from docs are shared with ix;
// touched lists are copied before the new DocIDs are appended, so
// neither index can observe the other's writes. Extend panics when ix is
// not frozen (an unfrozen index is still being loaded; extending it
// indicates a programming error).
func (ix *Index) Extend(docs []TermSet) *Index {
	if !ix.frozen {
		panic("textual: Extend of an unfrozen index")
	}
	next := &Index{
		postings: make(map[TermID][]DocID, len(ix.postings)),
		docTerms: make([]TermSet, len(ix.docTerms), len(ix.docTerms)+len(docs)),
		frozen:   true,
		numDocs:  ix.numDocs,
	}
	copy(next.docTerms, ix.docTerms)
	for t, p := range ix.postings {
		next.postings[t] = p
	}
	copied := make(map[TermID]bool)
	for _, terms := range docs {
		doc := DocID(next.numDocs)
		next.numDocs++
		// Deep-copy the incoming set: the caller may be reusing a decode
		// buffer (WAL replay) or handing in a set it later sorts, and this
		// index must stay immutable for as long as any snapshot reader
		// holds it.
		next.docTerms = append(next.docTerms, append(TermSet(nil), terms...))
		for _, t := range terms {
			if !copied[t] {
				// First touch this extension: unshare the list from ix
				// before appending (the shared backing array must stay
				// exactly as ix's readers see it).
				next.postings[t] = append(make([]DocID, 0, len(next.postings[t])+1), next.postings[t]...)
				copied[t] = true
			}
			next.postings[t] = append(next.postings[t], doc)
		}
	}
	return next
}

// NumDocs returns the number of documents added.
func (ix *Index) NumDocs() int { return ix.numDocs }

// DocTerms returns a copy of the term set of doc. Returning a copy costs
// one allocation on a path no search loop touches (the engines score
// through ScoreAll, which reads the internal sets directly) and
// removes a whole bug class: a caller that sorts or edits the result in
// place can no longer corrupt this index — or, worse, every MVCC
// generation sharing the set through Extend.
func (ix *Index) DocTerms(doc DocID) TermSet {
	return append(TermSet(nil), ix.docTerms[doc]...)
}

// Postings returns a copy of the ascending document list for term (nil
// if the term occurs nowhere). As with DocTerms, the copy makes
// caller-side mutation harmless: posting lists may be shared with other
// generations of this index (Extend) and with the disk-store sidecar
// loader, so handing out the internal slice would let one caller's edit
// silently poison readers holding an older snapshot.
func (ix *Index) Postings(term TermID) []DocID {
	return append([]DocID(nil), ix.postings[term]...)
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term TermID) int { return len(ix.postings[term]) }

// DocsWithAny returns the ascending, deduplicated list of documents
// containing at least one of the query terms. Every document outside this
// list has Jaccard similarity exactly 0 with the query — the
// textual pruning fact the engine's unseen-trajectory bound relies on.
func (ix *Index) DocsWithAny(query TermSet) []DocID {
	switch len(query) {
	case 0:
		return nil
	case 1:
		p := ix.postings[query[0]]
		return append([]DocID(nil), p...)
	}
	// k-way merge by repeated pairwise union, smallest lists first.
	lists := make([][]DocID, 0, len(query))
	for _, t := range query {
		if p := ix.postings[t]; len(p) > 0 {
			lists = append(lists, p)
		}
	}
	if len(lists) == 0 {
		return nil
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	acc := append([]DocID(nil), lists[0]...)
	for _, l := range lists[1:] {
		acc = unionSorted(acc, l)
	}
	return acc
}

func unionSorted(a, b []DocID) []DocID {
	out := make([]DocID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// ScoreAll computes sim(query, doc) for every document sharing at least
// one term with the query, using the given similarity function, and
// returns parallel slices of documents (ascending) and scores.
func (ix *Index) ScoreAll(query TermSet, sim func(a, b TermSet) float64) (docs []DocID, scores []float64) {
	docs = ix.DocsWithAny(query)
	scores = make([]float64, len(docs))
	for i, d := range docs {
		scores[i] = sim(query, ix.docTerms[d])
	}
	return docs, scores
}
