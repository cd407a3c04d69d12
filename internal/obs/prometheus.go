package obs

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// TextContentType is the Content-Type of the Prometheus text exposition
// format v0.0.4, which WritePrometheus emits.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format, families sorted by name, members sorted by label
// signature. Values are read with the same atomics the hot paths use, so a
// scrape observes each instrument at one instant (though not the registry
// as a whole — standard Prometheus semantics).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType()); err != nil {
			return err
		}
		for _, m := range f.metrics {
			if err := writeMetric(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetric(w io.Writer, f *family, m *metric) error {
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(m.labels, nil), m.counter.Value())
		return err
	case kindGaugeFunc:
		v := 0.0
		if m.gaugeFn != nil {
			v = m.gaugeFn()
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(m.labels, nil), formatValue(v))
		return err
	case kindHistogram:
		h := m.hist
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			le := Label{Key: "le", Value: formatValue(bound)}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(m.labels, &le), cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		inf := Label{Key: "le", Value: "+Inf"}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelString(m.labels, &inf), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(m.labels, nil), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(m.labels, nil), h.Count())
		return err
	}
	return nil
}

// labelString renders {k="v",...}; extra, when non-nil, is appended last
// (the histogram "le" label). Empty label sets render as nothing.
func labelString(labels []Label, extra *Label) string {
	if len(labels) == 0 && extra == nil {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes quotes, backslashes and newlines exactly as the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extra != nil {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extra.Key, extra.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integers without
// a decimal point, specials as +Inf/-Inf/NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// escapeHelp escapes newlines and backslashes in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
