// Package textual implements the textual-domain substrate of the UOTS
// system: a vocabulary mapping keyword strings to dense term IDs, the
// Jaccard similarity over keyword sets, a keyword inverted index, and a
// Zipf-skewed vocabulary generator for synthetic workloads.
//
// Trajectories carry textual attributes (activity keywords, POI
// categories, traveler notes); a UOTS query carries keywords describing
// the user's travel intention. The textual similarity between the two sets
// is combined linearly with the spatial similarity by the search engine.
package textual

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// TermID is a dense identifier for a vocabulary term.
type TermID int32

// Vocab is a bidirectional mapping between keyword strings and TermIDs.
// The zero value is an empty, ready-to-use vocabulary. Vocab is safe for
// concurrent use: the live ingest path interns new corpus keywords while
// query setup looks search terms up, so interning takes a write lock and
// lookups a read lock. Scoring itself runs on interned TermIDs and never
// touches the vocabulary.
type Vocab struct {
	mu     sync.RWMutex
	byTerm map[string]TermID
	terms  []string
}

// NewVocab returns an empty vocabulary.
func NewVocab() *Vocab {
	return &Vocab{byTerm: make(map[string]TermID)}
}

// Size returns the number of distinct terms interned so far.
func (v *Vocab) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.terms)
}

// Intern normalizes the keyword and returns its TermID, assigning a fresh
// ID on first sight. Keywords that normalize to the empty string return
// (-1, false).
func (v *Vocab) Intern(keyword string) (TermID, bool) {
	norm := Normalize(keyword)
	if norm == "" {
		return -1, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.byTerm == nil {
		v.byTerm = make(map[string]TermID)
	}
	if id, ok := v.byTerm[norm]; ok {
		return id, true
	}
	id := TermID(len(v.terms))
	v.byTerm[norm] = id
	v.terms = append(v.terms, norm)
	return id, true
}

// Lookup returns the TermID of an already-interned keyword.
func (v *Vocab) Lookup(keyword string) (TermID, bool) {
	norm := Normalize(keyword)
	v.mu.RLock()
	defer v.mu.RUnlock()
	id, ok := v.byTerm[norm]
	return id, ok
}

// Term returns the normalized string for id; ok is false for unknown IDs.
func (v *Vocab) Term(id TermID) (string, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if id < 0 || int(id) >= len(v.terms) {
		return "", false
	}
	return v.terms[id], true
}

// InternAll interns each keyword and returns the resulting TermSet
// (deduplicated, sorted). Keywords that normalize to empty are dropped.
func (v *Vocab) InternAll(keywords []string) TermSet {
	ids := make([]TermID, 0, len(keywords))
	for _, k := range keywords {
		if id, ok := v.Intern(k); ok {
			ids = append(ids, id)
		}
	}
	return NewTermSet(ids)
}

// LookupAll is InternAll's read-only twin, for query keywords: a keyword
// the vocabulary holds resolves to its TermID, and each distinct keyword
// it does not hold gets a negative ID of its own, meaningful within the
// returned set only. Intern never issues a negative ID, so no stored
// document can match one — not even a document committed while the
// query runs — yet the keyword still counts in the set's size (the union
// of Jaccard) exactly as a freshly interned ID would. Nothing is stored:
// a query cannot grow the vocabulary.
func (v *Vocab) LookupAll(keywords []string) TermSet {
	ids := make([]TermID, 0, len(keywords))
	var unseen []string
	for _, k := range keywords {
		if id, ok := v.Lookup(k); ok {
			ids = append(ids, id)
		} else if norm := Normalize(k); norm != "" {
			unseen = append(unseen, norm)
		}
	}
	slices.Sort(unseen)
	for i := range slices.Compact(unseen) {
		ids = append(ids, TermID(-1-i))
	}
	return NewTermSet(ids)
}

// Normalize lowercases the keyword, trims surrounding space and drops any
// characters that are not letters, digits, hyphens or underscores. It is
// the single canonicalization point for both corpus and query keywords.
func Normalize(keyword string) string {
	var b strings.Builder
	for _, r := range strings.TrimSpace(keyword) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '-' || r == '_':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Tokenize splits free text on any non-term character and normalizes each
// token, dropping empties. Use it to turn a free-form intention sentence
// ("lakeside dinner, live jazz!") into query keywords.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(text, func(r rune) bool {
		return !(unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-' || r == '_')
	})
	out := fields[:0]
	for _, f := range fields {
		if n := Normalize(f); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// TermSet is a deduplicated, ascending-sorted set of TermIDs. The
// representation invariant (sorted, unique) is what makes the similarity
// functions below linear-time merges.
type TermSet []TermID

// NewTermSet sorts and deduplicates ids into a TermSet. The input slice is
// not modified.
func NewTermSet(ids []TermID) TermSet {
	if len(ids) == 0 {
		return nil
	}
	s := append(TermSet(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, id := range s[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// Contains reports whether id is in the set.
func (s TermSet) Contains(id TermID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// IntersectionSize returns |s ∩ t| by a linear merge.
func (s TermSet) IntersectionSize(t TermSet) int {
	i, j, n := 0, 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Jaccard returns |s ∩ t| / |s ∪ t| ∈ [0, 1]. Two empty sets have
// similarity 0 (an empty intention matches nothing, by convention).
func Jaccard(s, t TermSet) float64 {
	inter := s.IntersectionSize(t)
	union := len(s) + len(t) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
