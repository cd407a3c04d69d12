package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestCounterLabels(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "", L("ep", "ingest"))
	b := r.Counter("reqs_total", "", L("ep", "score"))
	if a == b {
		t.Fatal("different label sets shared one counter")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("label isolation broken")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.2 {
		t.Errorf("sum = %g, want 556.2", h.Sum())
	}
	// ranks: 1,2 -> le=1; 3 -> le=10; 4 -> le=100; 5 -> +Inf (clamped to 100)
	if q := h.Quantile(0.5); q != 10 {
		t.Errorf("p50 = %g, want 10", q)
	}
	if q := h.Quantile(0.99); q != 100 {
		t.Errorf("p99 = %g, want 100", q)
	}
	empty := r.Histogram("lat2", "", []float64{1})
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty p50 = %g, want 0", q)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n_total", "")
	h := r.Histogram("h", "", []float64{1, 2, 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 5))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("dod_ingest_total", "points ingested").Add(42)
	r.GaugeFunc("dod_window_points", "resident points", func() float64 { return 7 })
	r.GaugeFunc("dod_up", "always one", func() float64 { return 1 })
	h := r.Histogram("dod_latency_seconds", "op latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)
	r.Counter("dod_reqs_total", "requests", L("endpoint", "ingest")).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dod_ingest_total counter",
		"dod_ingest_total 42",
		"# TYPE dod_window_points gauge",
		"dod_window_points 7",
		"dod_up 1",
		"# HELP dod_latency_seconds op latency",
		"# TYPE dod_latency_seconds histogram",
		`dod_latency_seconds_bucket{le="0.001"} 1`,
		`dod_latency_seconds_bucket{le="0.01"} 1`,
		`dod_latency_seconds_bucket{le="+Inf"} 2`,
		"dod_latency_seconds_sum 0.5005",
		"dod_latency_seconds_count 2",
		`dod_reqs_total{endpoint="ingest"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q in:\n%s", want, out)
		}
	}
	// Families must be sorted by name.
	if strings.Index(out, "dod_ingest_total") > strings.Index(out, "dod_window_points") {
		t.Error("families not sorted by name")
	}
}

func TestTrace(t *testing.T) {
	tr := NewTrace("run")
	sp := tr.Start("map")
	time.Sleep(time.Millisecond)
	sp.SetAttr(Int("job", 0)).End()
	tr.Add("reduce", time.Now(), 5*time.Millisecond, Str("algo", "Cell-Based"))
	tr.Add("reduce", time.Now(), 7*time.Millisecond)

	if got := len(tr.Spans()); got != 3 {
		t.Fatalf("spans = %d, want 3", got)
	}
	if s, ok := tr.Find("map"); !ok || s.Duration <= 0 || s.Attr("job") != "0" {
		t.Errorf("map span = %+v ok=%v", s, ok)
	}
	if total := tr.Total("reduce"); total != 12*time.Millisecond {
		t.Errorf("reduce total = %s, want 12ms", total)
	}
	if !strings.Contains(tr.String(), "algo=Cell-Based") {
		t.Errorf("String() missing attrs:\n%s", tr.String())
	}
}

func TestNilTrace(t *testing.T) {
	var tr *Trace
	tr.Add("x", time.Now(), time.Second)
	tr.Start("y").SetAttr(Str("a", "b")).End()
	if tr.Spans() != nil || tr.Total("x") != 0 {
		t.Error("nil trace should be a no-op sink")
	}
	if _, ok := tr.Find("x"); ok {
		t.Error("nil trace Find should report absent")
	}
	_ = tr.String()
}
