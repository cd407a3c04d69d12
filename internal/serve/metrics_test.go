package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/stream"
)

// newHTTPTestServer mounts an already-built Server on an httptest listener.
func newHTTPTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.TextContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, stream.Config{R: 5, K: 3, Dim: 2, Capacity: 1000})
	_ = s

	// Drive some traffic so counters and histograms are non-zero.
	ingest := "{\"id\":1,\"coords\":[0,0]}\n{\"id\":2,\"coords\":[1,1]}\n{\"id\":3,\"coords\":[50,50]}\n"
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(ingest))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/v1/score", "application/x-ndjson", strings.NewReader("{\"id\":9,\"coords\":[0.5,0.5]}\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	body := scrape(t, ts.URL)

	// Exact sample lines for the request and line counters.
	for _, line := range []string{
		`dod_serve_requests_total{endpoint="ingest"} 1`,
		`dod_serve_requests_total{endpoint="score"} 1`,
		`dod_serve_lines_total{endpoint="ingest"} 3`,
		`dod_serve_lines_total{endpoint="score"} 1`,
		`dod_stream_ingested_total 3`,
		`dod_index_inserts_total 3`,
	} {
		if !strings.Contains(body, line+"\n") {
			t.Errorf("missing exposition line %q", line)
		}
	}

	// Exposition-format structure: HELP and TYPE headers, histogram
	// bucket/sum/count triplet with a +Inf bucket, gauges from the window.
	for _, frag := range []string{
		"# HELP dod_serve_requests_total ",
		"# TYPE dod_serve_requests_total counter\n",
		"# TYPE dod_serve_latency_seconds histogram\n",
		`dod_serve_latency_seconds_bucket{op="ingest",le="+Inf"} 3`,
		`dod_serve_latency_seconds_count{op="ingest"} 3`,
		`dod_serve_latency_seconds_sum{op="ingest"} `,
		`dod_serve_batch_stage_seconds_bucket{endpoint="ingest",stage="process",le="+Inf"} 1`,
		"# TYPE dod_stream_window_points gauge\n",
		"dod_stream_window_points 3\n",
		"# TYPE dod_index_ring_depth histogram\n",
		"dod_serve_uptime_seconds ",
	} {
		if !strings.Contains(body, frag) {
			t.Errorf("missing exposition fragment %q", frag)
		}
	}
}

func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Stream: stream.Config{R: 5, K: 3, Dim: 2, Capacity: 10}, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if s.Registry() != reg {
		t.Fatal("server did not adopt the provided registry")
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "dod_serve_requests_total") {
		t.Error("provided registry lacks the server's instruments")
	}
}

func TestPprofOptIn(t *testing.T) {
	// Default: pprof is not mounted.
	_, ts := newTestServer(t, stream.Config{R: 5, K: 3, Dim: 2, Capacity: 10})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("/debug/pprof/ served without EnablePprof")
	}

	s, err := New(Config{Stream: stream.Config{R: 5, K: 3, Dim: 2, Capacity: 10}, FrontConfig: httpapi.FrontConfig{EnablePprof: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts2 := newHTTPTestServer(t, s)
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d with EnablePprof", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}
