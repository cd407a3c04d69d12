// Cross-role conformance of what only one role did before the two fronts
// merged: request-ID minting (router only), the in-flight bound (single
// server only) and per-tenant limits (router only) now answer alike in both;
// and the score fan-out's bound on a router's support RPCs, and its answer
// to a shard's corrupt count.
package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"dod/internal/httpapi"
	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
)

// newAdmissionPair starts both roles with the same front configuration.
func newAdmissionPair(t *testing.T, front httpapi.FrontConfig) (p conformancePair, rt *router.Router) {
	t.Helper()
	c := newCluster(t, clusterOpts{shards: 1, capacity: 50, block: 2, routerOpts: func(cfg *router.Config) {
		cfg.FrontConfig = front
	}})
	single, err := serve.New(serve.Config{
		Stream:      stream.Config{R: testR, K: testK, Dim: testDim, Capacity: 50},
		FrontConfig: front,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	srv := httptest.NewServer(single.Handler())
	t.Cleanup(srv.Close)
	return conformancePair{single: srv.URL, routed: c.rtSrv.URL}, c.rt
}

// as is a request's X-Dod-Request-Id and X-Dod-Tenant headers, both sent
// even when empty.
func as(reqID, tenant string) http.Header {
	return http.Header{router.HeaderRequestID: {reqID}, router.HeaderTenant: {tenant}}
}

// sendWith POSTs body to base+path with the given headers, returning the
// reply and its Retry-After.
func sendWith(t *testing.T, base, path string, hdr http.Header, body string) (roleReply, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header = hdr
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return roleReply{resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get(router.HeaderRequestID), raw},
		resp.Header.Get("Retry-After")
}

// bothWith sends one request to each role and fails unless the replies
// agree, Retry-After's presence included.
func (p conformancePair) bothWith(t *testing.T, label, path string, hdr http.Header, body string) roleReply {
	t.Helper()
	want, wantRetry := sendWith(t, p.single, path, hdr, body)
	got, gotRetry := sendWith(t, p.routed, path, hdr, body)
	if got.status != want.status || got.contentType != want.contentType || got.requestID != want.requestID ||
		!bytes.Equal(got.body, want.body) || (gotRetry == "") != (wantRetry == "") {
		t.Errorf("%s: router (%d %q %q Retry-After %q) %s\nsingle (%d %q %q Retry-After %q) %s", label,
			got.status, got.contentType, got.requestID, gotRetry, got.body,
			want.status, want.contentType, want.requestID, wantRetry, want.body)
	}
	return want
}

// waitInflight polls base's /readyz until it counts n admitted batch
// requests.
func waitInflight(t *testing.T, base string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		var rz struct {
			Inflight int `json:"inflight"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rz.Inflight == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s/readyz counts %d in flight, want %d", base, rz.Inflight, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdSlot starts an ingest whose body stays open, so the request keeps its
// admission slot, and waits until it is the inflight-th admitted one. The
// returned func ends the body and waits for the response.
func holdSlot(t *testing.T, base string, inflight int) (release func()) {
	t.Helper()
	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(base+"/v1/ingest", "application/x-ndjson", pr)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	waitInflight(t, base, inflight)
	return func() {
		pw.Close()
		<-done
	}
}

// TestFrontConformanceMintedID: a request without an X-Dod-Request-Id, or
// with an empty one, gets a fresh 16-hex-char one from either role, and the
// same answer otherwise. Every ingest batch is new, so a router that reused
// one request's shard-call idempotency keys for the next would replay the
// first batch's shard answers and diverge from the single server.
func TestFrontConformanceMintedID(t *testing.T) {
	p, _ := newAdmissionPair(t, httpapi.FrontConfig{})
	hex16 := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i, hdr := range []http.Header{{}, as("", "")} {
		id := uint64(10 * i)
		for _, req := range []struct{ path, body string }{
			{"/v1/ingest", pointLine(id+1, 0, 0) + pointLine(id+2, 0.5, 0)},
			{"/v1/ingest", pointLine(id+3, 0.4, 0.1) + pointLine(id+4, 9, 9)},
			{"/v1/score", pointLine(id+5, 0.2, 0) + pointLine(id+6, 9, 9.5)},
			{"/healthz", ""},
		} {
			want, _ := sendWith(t, p.single, req.path, hdr.Clone(), req.body)
			got, _ := sendWith(t, p.routed, req.path, hdr.Clone(), req.body)
			for _, minted := range []string{want.requestID, got.requestID} {
				if !hex16.MatchString(minted) || seen[minted] {
					t.Fatalf("%s with headers %v: minted request IDs single %q, router %q, want fresh 16 hex chars",
						req.path, hdr, want.requestID, got.requestID)
				}
				seen[minted] = true
			}
			if req.path == "/healthz" {
				continue // its body carries the uptime
			}
			if got.status != want.status || !bytes.Equal(got.body, want.body) {
				t.Fatalf("%s with headers %v: router %d %s, single %d %s", req.path, hdr, got.status, got.body, want.status, want.body)
			}
		}
	}
}

// TestFrontConformanceInflight: with every in-flight slot held, either role
// sheds a batch request at once with the same 429.
func TestFrontConformanceInflight(t *testing.T) {
	p, rt := newAdmissionPair(t, httpapi.FrontConfig{MaxInflight: 1})
	releaseSingle := holdSlot(t, p.single, 1)
	releaseRouted := holdSlot(t, p.routed, 1)
	for _, path := range []string{"/v1/ingest", "/v1/score"} {
		r := p.bothWith(t, "shed "+path, path, as("adm-1", ""), pointLine(7, 1, 1))
		if r.status != http.StatusTooManyRequests || !bytes.Contains(r.body, []byte(`"overloaded"`)) {
			t.Fatalf("%s with every slot held: status %d: %s, want 429 overloaded", path, r.status, r.body)
		}
	}
	releaseSingle()
	releaseRouted()
	if r := p.bothWith(t, "after release", "/v1/ingest", as("adm-2", ""), pointLine(7, 1, 1)); r.status != http.StatusOK {
		t.Fatalf("after release: status %d: %s", r.status, r.body)
	}
	var metrics strings.Builder
	if err := rt.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`dod_shed_total{endpoint="ingest",reason="inflight"} 1`,
		`dod_shed_total{endpoint="score",reason="inflight"} 1`,
	} {
		if !strings.Contains(metrics.String(), line+"\n") {
			t.Errorf("router /metrics lacks %q", line)
		}
	}
}

// TestFrontConformanceTenants: the per-tenant token bucket and lifetime
// quota reject alike in both roles, each tenant on its own account.
func TestFrontConformanceTenants(t *testing.T) {
	p, rt := newAdmissionPair(t, httpapi.FrontConfig{TenantRPS: 0.001, TenantBurst: 2, TenantQuota: 3})
	two := pointLine(10, 1, 1) + pointLine(11, 1.2, 1)
	if r := p.bothWith(t, "a: first", "/v1/ingest", as("ten-1", "a"), two); r.status != http.StatusOK {
		t.Fatalf("tenant a, first batch: status %d: %s", r.status, r.body)
	}
	r := p.bothWith(t, "a: over quota", "/v1/ingest", as("ten-2", "a"), pointLine(12, 1, 1.2)+pointLine(13, 1.1, 1.1))
	if r.status != http.StatusTooManyRequests || !bytes.Contains(r.body, []byte(`"quota_exceeded"`)) {
		t.Fatalf("tenant a, over quota: status %d: %s, want 429 quota_exceeded", r.status, r.body)
	}
	r = p.bothWith(t, "a: over rate", "/v1/score", as("ten-3", "a"), pointLine(14, 1, 1))
	if r.status != http.StatusTooManyRequests || !bytes.Contains(r.body, []byte(`"rate_limited"`)) {
		t.Fatalf("tenant a, third request: status %d: %s, want 429 rate_limited", r.status, r.body)
	}
	if r := p.bothWith(t, "b: own bucket", "/v1/ingest", as("ten-4", "b"), pointLine(20, 3, 3)); r.status != http.StatusOK {
		t.Fatalf("tenant b: status %d: %s", r.status, r.body)
	}
	var metrics strings.Builder
	if err := rt.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`dod_shed_total{endpoint="ingest",reason="quota"} 1`,
		`dod_shed_total{endpoint="score",reason="rate"} 1`,
	} {
		if !strings.Contains(metrics.String(), line+"\n") {
			t.Errorf("router /metrics lacks %q", line)
		}
	}
}

// TestFrontScoreTilesBoundSupportRPCs: a router scores a large batch in
// ranges of fewer than 128 lines, so each support RPC carries a bounded
// number of probes whatever the batch size — at d=3 every probe ships 729
// neighbourhood cells. The answer stays byte-identical to the single
// server's, with no line errors.
func TestFrontScoreTilesBoundSupportRPCs(t *testing.T) {
	const dim = 3
	shard, err := serve.NewShard(serve.ShardServerConfig{Name: "s0", R: testR, K: testK, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shard.Close)
	var mu sync.Mutex
	maxProbes := 0
	shardSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == router.PathSupport {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			if _, probes, err := router.DecodeSupportBatch(body); err == nil {
				mu.Lock()
				maxProbes = max(maxProbes, len(probes))
				mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		shard.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(shardSrv.Close)
	rt, err := router.New(router.Config{
		R: testR, K: testK, Dim: dim, Capacity: 500,
		Shards: []router.ShardInfo{{Name: "s0", URL: shardSrv.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)
	single, err := serve.New(serve.Config{Stream: stream.Config{R: testR, K: testK, Dim: dim, Capacity: 500}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(single.Close)
	singleSrv := httptest.NewServer(single.Handler())
	t.Cleanup(singleSrv.Close)
	p := conformancePair{single: singleSrv.URL, routed: rtSrv.URL}

	rng := rand.New(rand.NewSource(29))
	batch := func(idBase uint64, n int) string {
		var b strings.Builder
		for i := range n {
			b.WriteString(pointLine(idBase+uint64(i), 3*rng.Float64(), 3*rng.Float64(), 3*rng.Float64()))
		}
		return b.String()
	}
	if r := p.bothWith(t, "ingest", "/v1/ingest", as("tile-1", ""), batch(0, 300)); r.status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", r.status, r.body)
	}
	r := p.bothWith(t, "score", "/v1/score", as("tile-2", ""), batch(1000, 1000))
	if r.status != http.StatusOK || bytes.Contains(r.body, []byte(`"error"`)) {
		t.Fatalf("score: status %d, want 200 with no line errors: %.300s", r.status, r.body)
	}
	if maxProbes == 0 || maxProbes >= 128 {
		t.Fatalf("largest support RPC carried %d probes, want 1..127", maxProbes)
	}
}

// TestScoreAnswersNegativeSupportCount has a tier's only shard answer every
// score probe with a count of -1, as a corrupt body could. Each line must
// still come back under its own ID, summed as the shard answered: whether a
// line was probed never depends on what a shard replies.
func TestScoreAnswersNegativeSupportCount(t *testing.T) {
	shard, err := serve.NewShard(serve.ShardServerConfig{Name: "s0", R: testR, K: testK, Dim: testDim})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shard.Close)
	shardSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == router.PathSupport {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			if hdr, probes, err := router.DecodeSupportBatch(body); err == nil && hdr.Limit > 0 {
				counts := make([]int, len(probes))
				for i := range counts {
					counts[i] = -1
				}
				json.NewEncoder(w).Encode(router.SupportResponse{Counts: counts})
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		shard.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(shardSrv.Close)
	rt, err := router.New(router.Config{
		R: testR, K: testK, Dim: testDim, Capacity: 100,
		Shards: []router.ShardInfo{{Name: "s0", URL: shardSrv.URL}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)

	const first, lines = 500, 5
	status, raw := post(t, rtSrv.URL+"/v1/score", pointLines(rand.New(rand.NewSource(4)), first, lines))
	if status != http.StatusOK {
		t.Fatalf("score: status %d: %s", status, raw)
	}
	got := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != lines {
		t.Fatalf("score answered %d lines, want %d: %s", len(got), lines, raw)
	}
	for i, line := range got {
		var sl httpapi.ScoreLine
		if err := json.Unmarshal([]byte(line), &sl); err != nil {
			t.Fatal(err)
		}
		if want := (httpapi.ScoreLine{ID: first + uint64(i), Neighbors: -1, Outlier: true}); sl != want {
			t.Errorf("line %d answered %+v, want %+v", i, sl, want)
		}
	}
}
