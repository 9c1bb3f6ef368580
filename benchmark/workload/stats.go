package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, the ascending latencies of the operations that succeeded out
// of attempted. Failed operations count as slower than every success: a
// rank that falls among them returns penalty, so a failure can only make
// a percentile worse.
func Percentile(sorted []float64, attempted int, p, penalty float64) float64 {
	if attempted < len(sorted) {
		attempted = len(sorted)
	}
	if attempted == 0 {
		return penalty
	}
	rank := int(math.Ceil(p / 100 * float64(attempted)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		return penalty
	}
	return sorted[rank-1]
}

// Summary is the median and tail of one latency sample.
type Summary struct {
	N             int // successful operations
	P50, P95, P99 float64
}

// Summarize reports the nearest-rank percentiles of ms, the latencies of
// the operations that succeeded out of attempted (see Percentile).
func Summarize(ms []float64, attempted int, penalty float64) Summary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return Summary{
		N:   len(s),
		P50: Percentile(s, attempted, 50, penalty),
		P95: Percentile(s, attempted, 95, penalty),
		P99: Percentile(s, attempted, 99, penalty),
	}
}

// Median returns the middle of vs (mean of the two middles for an even
// count); it sorts a copy.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Due is when operation i of a paced schedule must be sent: the schedule
// is fixed at start, so a stalled server cannot slow it down.
func Due(start time.Time, i int, perSec float64) time.Time {
	return start.Add(time.Duration(float64(i) / perSec * float64(time.Second)))
}

// PacedLatency is the latency and generator lateness of a paced
// operation. Latency counts from the due time, not the send time, so the
// wait a stall imposes on later operations is charged to them.
func PacedLatency(due, sent, done time.Time) (latency, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the line the outer driver parses: the last line of standard
// output of a `-workload` run.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Print writes r as one JSON line.
func (r Result) Print(w io.Writer) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
