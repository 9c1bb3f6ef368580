package obs

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served by
// Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeHelp escapes a HELP line per the text format: backslash and
// newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, double quote, newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {a="x",b="y"} (nothing for an empty set). extra
// is an optional pre-rendered pair appended last (the histogram le).
func writeLabels(b *bufio.Writer, names, values []string, extra string) {
	if len(names) == 0 && extra == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extra != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
}

// WritePrometheus encodes every registered metric in the Prometheus
// text exposition format. Families are ordered by name and series by
// label-value tuple, so two encodes of the same state are byte-equal —
// scrapes and tests can diff output deterministically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	b := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		values, metrics := f.sortedSeries()
		if len(metrics) == 0 {
			continue
		}
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.typ)
		b.WriteByte('\n')
		for i, m := range metrics {
			switch m := m.(type) {
			case *Counter:
				b.WriteString(f.name)
				writeLabels(b, f.labelNames, values[i], "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(m.Value(), 10))
				b.WriteByte('\n')
			case *Gauge:
				b.WriteString(f.name)
				writeLabels(b, f.labelNames, values[i], "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatInt(m.Value(), 10))
				b.WriteByte('\n')
			case *Histogram:
				cum := m.cumulative()
				for j, c := range cum {
					le := "+Inf"
					if j < len(m.upper) {
						le = formatFloat(m.upper[j])
					}
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(b, f.labelNames, values[i], `le="`+le+`"`)
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(c, 10))
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(b, f.labelNames, values[i], "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.Sum()))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(b, f.labelNames, values[i], "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum[len(cum)-1], 10))
				b.WriteByte('\n')
			}
		}
	}
	return b.Flush()
}

// Handler serves the registry in the Prometheus text format — mount it
// at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w) // the connection is the only failure mode
	})
}
