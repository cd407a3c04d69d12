package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: fmt.Sprintf("%d", value)} }

// Span is one timed region of a trace. Spans are immutable once recorded;
// live spans are handled by the Trace that issued them.
type Span struct {
	// Name identifies the operation: "preprocess", "plan", "map",
	// "shuffle", "reduce", "partition.detect", ...
	Name string
	// Start is the span's wall-clock start.
	Start time.Time
	// Duration is the span's length.
	Duration time.Duration
	// Attrs annotate the span (partition id, chosen detector, record
	// counts, ...). Order is insertion order.
	Attrs []Attr
}

// Attr returns the value of the named attribute, or "" if absent.
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is an append-only collection of spans describing one run. All
// methods are safe for concurrent use; a nil *Trace is a valid no-op sink,
// so instrumented code never needs nil checks at call sites.
type Trace struct {
	name  string
	start time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTrace starts an empty trace.
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now()}
}

// Add records a completed span.
func (t *Trace) Add(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{Name: name, Start: start, Duration: d, Attrs: attrs})
	t.mu.Unlock()
}

// LiveSpan is an in-progress span; End records it on its trace.
type LiveSpan struct {
	tr    *Trace
	name  string
	start time.Time
	attrs []Attr
}

// Start opens a live span; call End to record it.
func (t *Trace) Start(name string) *LiveSpan {
	if t == nil {
		return nil
	}
	return &LiveSpan{tr: t, name: name, start: time.Now()}
}

// SetAttr annotates the live span.
func (s *LiveSpan) SetAttr(attrs ...Attr) *LiveSpan {
	if s != nil {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// End records the span with duration time.Since(start).
func (s *LiveSpan) End() {
	if s == nil {
		return
	}
	s.tr.Add(s.name, s.start, time.Since(s.start), s.attrs...)
}

// Spans returns a copy of the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Find returns the first span with the given name.
func (t *Trace) Find(name string) (Span, bool) {
	if t == nil {
		return Span{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			return s, true
		}
	}
	return Span{}, false
}

// Total sums the durations of all spans with the given name — e.g. the
// total "map" wall time across a multi-job run, or the cumulative
// per-partition detection time.
func (t *Trace) Total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.Duration
		}
	}
	return sum
}

// String renders the trace as an indented table sorted by start time —
// one line per span with duration and attributes.
func (t *Trace) String() string {
	if t == nil {
		return "(nil trace)"
	}
	spans := t.Spans()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d spans)\n", t.name, len(spans))
	for _, s := range spans {
		fmt.Fprintf(&b, "  %-20s %12s  +%-10s", s.Name, s.Duration.Round(time.Microsecond), s.Start.Sub(t.start).Round(time.Microsecond))
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
