// Cross-role conformance: the single-process server and a one-shard router
// tier, given the same limits, answer the same requests alike — status,
// Content-Type, the echoed request ID and the body, byte for byte — on the
// good path, the per-line error path and every request-level rejection.
package router_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
)

// conformanceLimits are the request caps both roles run with.
const (
	conformanceMaxBatch = 8
	conformanceMaxBody  = 1024
)

// roleReply is what one role answered to one request.
type roleReply struct {
	status      int
	contentType string
	requestID   string
	body        []byte
}

// conformancePair is one request sent to both roles.
type conformancePair struct {
	single, routed string // base URLs
}

// newConformancePair starts the single-process server and a one-shard
// router tier with equal MaxBatch and MaxBodyBytes. The limits are set by
// field assignment so the test reads the same whichever struct declares
// them.
func newConformancePair(t *testing.T, capacity int) conformancePair {
	t.Helper()
	c := newCluster(t, clusterOpts{shards: 1, capacity: capacity, block: 2, routerOpts: func(cfg *router.Config) {
		cfg.MaxBatch = conformanceMaxBatch
		cfg.MaxBodyBytes = conformanceMaxBody
	}})
	cfg := serve.Config{Stream: stream.Config{R: testR, K: testK, Dim: testDim, Capacity: capacity}}
	cfg.MaxBatch = conformanceMaxBatch
	cfg.MaxBodyBytes = conformanceMaxBody
	single, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	srv := httptest.NewServer(single.Handler())
	t.Cleanup(srv.Close)
	return conformancePair{single: srv.URL, routed: c.rtSrv.URL}
}

// send issues method path with body and the given request ID (none if
// empty) against base.
func send(t *testing.T, base, method, path, reqID, body string) roleReply {
	t.Helper()
	req, err := http.NewRequest(method, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if reqID != "" {
		req.Header.Set(router.HeaderRequestID, reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return roleReply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		requestID:   resp.Header.Get(router.HeaderRequestID),
		body:        raw,
	}
}

// both sends one request to each role and fails unless the replies agree.
func (p conformancePair) both(t *testing.T, label, method, path, reqID, body string) roleReply {
	t.Helper()
	want := send(t, p.single, method, path, reqID, body)
	got := send(t, p.routed, method, path, reqID, body)
	switch {
	case got.status != want.status:
		t.Errorf("%s: status router %d, single %d\nrouter: %s\nsingle: %s", label, got.status, want.status, got.body, want.body)
	case got.contentType != want.contentType:
		t.Errorf("%s: Content-Type router %q, single %q", label, got.contentType, want.contentType)
	case got.requestID != want.requestID:
		t.Errorf("%s: echoed request ID router %q, single %q", label, got.requestID, want.requestID)
	case !bytes.Equal(got.body, want.body):
		t.Errorf("%s: body diverged\nrouter: %s\nsingle: %s", label, got.body, want.body)
	}
	return want
}

func pointLine(id uint64, coords ...float64) string {
	parts := make([]string, len(coords))
	for i, c := range coords {
		parts[i] = fmt.Sprint(c)
	}
	return fmt.Sprintf(`{"id":%d,"coords":[%s]}`+"\n", id, strings.Join(parts, ","))
}

// TestFrontConformance pins what a client sees from either role: the same
// status, Content-Type, echoed X-Dod-Request-Id and bytes for good batches,
// per-line errors, a wrong method, an oversize body and an over-cap batch.
func TestFrontConformance(t *testing.T) {
	p := newConformancePair(t, 50)

	good := pointLine(1, 0, 0) + pointLine(2, 0.5, 0) + pointLine(3, 0.4, 0.4) + pointLine(4, 9, 9) + pointLine(5, 0.2, 0.9)
	if r := p.both(t, "good ingest", http.MethodPost, "/v1/ingest", "conf-1", good); r.status != http.StatusOK {
		t.Fatalf("good ingest: status %d: %s", r.status, r.body)
	}
	score := pointLine(100, 0.1, 0.1) + pointLine(101, 9, 9.5) + pointLine(102, 40, 40)
	if r := p.both(t, "good score", http.MethodPost, "/v1/score", "conf-2", score); r.status != http.StatusOK {
		t.Fatalf("good score: status %d: %s", r.status, r.body)
	}

	bad := pointLine(6, 1, 1) + "{malformed\n" + pointLine(7, 1, 2, 3) + pointLine(1, 5, 5) + `{"id":8,"coords":"x"}` + "\n" + pointLine(9, 1.1, 1)
	if r := p.both(t, "ingest with bad lines", http.MethodPost, "/v1/ingest", "conf-3", bad); r.status != http.StatusOK ||
		bytes.Count(r.body, []byte(`"error"`)) != 4 {
		t.Fatalf("ingest with bad lines: status %d, want 200 with 4 error lines: %s", r.status, r.body)
	}
	badScore := "{malformed\n" + pointLine(103, 1) + pointLine(104, 0.3, 0.3)
	if r := p.both(t, "score with bad lines", http.MethodPost, "/v1/score", "conf-4", badScore); r.status != http.StatusOK ||
		bytes.Count(r.body, []byte(`"error"`)) != 2 {
		t.Fatalf("score with bad lines: status %d, want 200 with 2 error lines: %s", r.status, r.body)
	}

	if r := p.both(t, "GET ingest", http.MethodGet, "/v1/ingest", "conf-5", ""); r.status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest: status %d, want 405", r.status)
	}
	if r := p.both(t, "GET score", http.MethodGet, "/v1/score", "conf-6", ""); r.status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/score: status %d, want 405", r.status)
	}

	// One line longer than the body cap: the byte cap, not the line cap, ends
	// the read.
	oversize := `{"id":50,"coords":[0.5,` + strings.Repeat("0", 2*conformanceMaxBody) + "]}\n"
	for _, path := range []string{"/v1/ingest", "/v1/score"} {
		r := p.both(t, "oversize body "+path, http.MethodPost, path, "conf-7", oversize)
		if r.status != http.StatusRequestEntityTooLarge || !bytes.Contains(r.body, []byte("body_too_large")) {
			t.Fatalf("oversize body %s: status %d: %s, want 413 body_too_large", path, r.status, r.body)
		}
	}

	var over strings.Builder
	for i := uint64(0); i <= conformanceMaxBatch; i++ {
		over.WriteString(pointLine(200+i, 2, 2))
	}
	for _, path := range []string{"/v1/ingest", "/v1/score"} {
		r := p.both(t, "over-cap batch "+path, http.MethodPost, path, "conf-8", over.String())
		if r.status != http.StatusBadRequest || !bytes.Contains(r.body, []byte("batch_too_large")) {
			t.Fatalf("over-cap batch %s: status %d: %s, want 400 batch_too_large", path, r.status, r.body)
		}
	}

	// Neither rejection touched the window: the next batch answers alike.
	after := pointLine(10, 0.3, 0) + pointLine(11, 8.8, 9)
	if r := p.both(t, "ingest after rejections", http.MethodPost, "/v1/ingest", "conf-9", after); r.status != http.StatusOK {
		t.Fatalf("ingest after rejections: status %d: %s", r.status, r.body)
	}
}
