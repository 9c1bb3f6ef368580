package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Trace (the request's index in the replay); Parent is the ID of
// the span that caused it, -1 for the root. Times are nanoseconds on one
// monotonic clock since the recorder was created.
type span struct {
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the replay ends. The replay is
// single-goroutine, so begin/end pair up as a stack; only the shard
// servers of the remote stack run on other goroutines, and they use now
// and add, hence the mutex.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	trace int   // index of the request being replayed
	open  []int // IDs of the spans begun and not yet ended
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open span and returns its ID.
func (r *recorder) begin(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Trace: r.trace, ID: id, Parent: parent, Name: name})
	r.open = append(r.open, id)
	r.spans[id].StartNs = r.now()
	return id
}

// end closes the innermost open span.
func (r *recorder) end() {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[id].EndNs = t
}

// add records a finished interval as a child of parent.
func (r *recorder) add(name string, parent int, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Trace: r.spans[parent].Trace, ID: len(r.spans), Parent: parent, Name: name, StartNs: start, EndNs: end})
}

// selfTimes returns each span's self time by ID: its duration minus the
// part of its interval its children cover. Overlapping children are
// counted once, and a child is clipped to its parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, reach := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, reach), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// byName groups the durations (or self times) of spans by span name, in
// milliseconds.
func byName(spans []span, ns func(span) int64) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(ns(s))/1e6)
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
