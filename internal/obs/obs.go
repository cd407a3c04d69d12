// Package obs is the repo-wide observability layer: a dependency-free
// metrics registry (counters, gauges, histograms with atomic hot paths)
// plus lightweight span tracing.
//
// Every subsystem instruments itself against a *Registry — the MapReduce
// driver (internal/core) records per-stage spans, the sliding window
// (internal/stream) and the incremental index (internal/index) record
// ingest/score/evict counters and ring-expansion depth histograms, and the
// serving layer (internal/serve) exposes everything as a Prometheus text
// endpoint. Nothing here imports anything outside the standard library, so
// any package may depend on it without cycles.
//
// Instruments are identified by name plus an ordered label set; asking the
// registry twice for the same (name, labels) returns the same instrument,
// so packages can instrument hot paths without coordinating construction
// order. All instrument operations are safe for concurrent use and lock-free
// on the hot path (a counter increment is one atomic add).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" dimension of an instrument.
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metricKind discriminates the instrument families a Registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution with atomic observation.
// Bucket i counts observations <= bounds[i]; a final implicit +Inf bucket
// catches the rest, following the Prometheus cumulative-bucket convention
// at exposition time.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the observation sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket containing it — the standard histogram-quantile estimate, biased
// high by at most one bucket width. Zero observations yield 0; observations
// beyond the last bound yield the last bound.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// expBuckets returns n exponentially growing bucket bounds starting at
// start (> 0) with the given growth factor (> 1).
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// DurationBuckets are the default latency bounds in seconds: 1µs to ~34s,
// doubling. They cover both sub-millisecond index probes and multi-second
// batch stages.
func DurationBuckets() []float64 { return expBuckets(1e-6, 2, 26) }

// metric is one registered instrument instance (a family member).
type metric struct {
	labels    []Label
	signature string
	counter   *Counter
	gaugeFn   func() float64
	hist      *Histogram
}

// family groups all instruments sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	bounds  []float64 // histograms only
	metrics []*metric
	byKey   map[string]*metric
}

// Registry holds instrument families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature flattens a label set into a canonical map key.
func signature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// sortLabels returns labels sorted by key, copied.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates the (family, metric) pair for name+labels,
// enforcing kind consistency within a family.
func (r *Registry) lookup(name, help string, kind metricKind, bounds []float64, labels []Label) *metric {
	labels = sortLabels(labels)
	sig := signature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, bounds: bounds, byKey: make(map[string]*metric)}
		r.families[name] = f
		r.order = append(r.order, name)
		sort.Strings(r.order)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind.promType(), f.kind.promType()))
	}
	m := f.byKey[sig]
	if m == nil {
		m = &metric{labels: labels, signature: sig}
		switch kind {
		case kindCounter:
			m.counter = &Counter{}
		case kindHistogram:
			h := &Histogram{bounds: append([]float64(nil), f.bounds...)}
			h.counts = make([]atomic.Int64, len(h.bounds)+1)
			m.hist = h
		}
		f.byKey[sig] = m
		f.metrics = append(f.metrics, m)
		sort.Slice(f.metrics, func(i, j int) bool { return f.metrics[i].signature < f.metrics[j].signature })
	}
	return m
}

// Counter returns the counter registered under name+labels, creating it on
// first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, kindCounter, nil, labels).counter
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values the owner already tracks (window occupancy, uptime),
// costing nothing on the hot path. Re-registering replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.lookup(name, help, kindGaugeFunc, nil, labels)
	r.mu.Lock()
	m.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram registered under name+labels with the
// given bucket bounds (used only on first registration of the family).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets()
	}
	return r.lookup(name, help, kindHistogram, bounds, labels).hist
}
