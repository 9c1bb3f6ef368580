package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestPrometheusEncoding(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("uots_requests_total", "Total requests.").Add(42)
	reg.Gauge("uots_in_flight", "In-flight requests.").Set(-3)
	h := reg.Histogram("uots_latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `# HELP uots_in_flight In-flight requests.
# TYPE uots_in_flight gauge
uots_in_flight -3
# HELP uots_latency_seconds Request latency.
# TYPE uots_latency_seconds histogram
uots_latency_seconds_bucket{le="0.1"} 1
uots_latency_seconds_bucket{le="1"} 2
uots_latency_seconds_bucket{le="+Inf"} 3
uots_latency_seconds_sum 2.55
uots_latency_seconds_count 3
# HELP uots_requests_total Total requests.
# TYPE uots_requests_total counter
uots_requests_total 42
`
	if got != want {
		t.Errorf("encoding mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestPrometheusLabelOrderingDeterministic(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("uots_http_requests_total", "By route and code.", "route", "code")
	// Insert in scrambled order; encode must sort by label-value tuple.
	cv.With("/search", "503").Inc()
	cv.With("/batch", "200").Add(2)
	cv.With("/search", "200").Add(7)

	var first bytes.Buffer
	if err := reg.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	wantLines := []string{
		`uots_http_requests_total{route="/batch",code="200"} 2`,
		`uots_http_requests_total{route="/search",code="200"} 7`,
		`uots_http_requests_total{route="/search",code="503"} 1`,
	}
	var gotLines []string
	for _, line := range strings.Split(first.String(), "\n") {
		if strings.HasPrefix(line, "uots_http_requests_total{") {
			gotLines = append(gotLines, line)
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("series lines = %v, want %v", gotLines, wantLines)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d = %q, want %q", i, gotLines[i], wantLines[i])
		}
	}
	// Byte-for-byte stable across encodes.
	var second bytes.Buffer
	if err := reg.WritePrometheus(&second); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("two encodes of the same state differ")
	}
}

func TestPrometheusEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("uots_weird_total", "line one\nline \\two", "q").
		With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, `# HELP uots_weird_total line one\nline \\two`) {
		t.Errorf("HELP not escaped:\n%s", got)
	}
	if !strings.Contains(got, `uots_weird_total{q="a\"b\\c\nd"} 1`) {
		t.Errorf("label value not escaped:\n%s", got)
	}
}
