package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"dod/internal/retry"
	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
)

// cluster is a full in-process sharded tier: N shard servers behind real
// HTTP listeners and a router in front, plus a single-process reference
// server fed the identical stream. The E2E contract under test: the two
// /v1/ingest and /v1/score NDJSON response streams are byte-identical.
type cluster struct {
	t      *testing.T
	rt     *router.Router
	rtSrv  *httptest.Server
	shards map[string]*serve.ShardServer
	srvs   map[string]*httptest.Server
	// stbys/stbySrvs hold the warm standbys of clusterOpts.standbys shards;
	// adoptStandby moves one into shards/srvs after its promotion.
	stbys    map[string]*serve.ShardServer
	stbySrvs map[string]*httptest.Server
	ref      *serve.Server
	refSrv   *httptest.Server
}

type clusterOpts struct {
	shards     int
	capacity   int
	block      int
	routerOpts func(*router.Config)
	// shardTransport, when set, supplies each shard's transport for outbound
	// calls — only the replication hop makes any (the failover chaos tests
	// inject faults here, keyed by shard name).
	shardTransport func(name string) http.RoundTripper
	// standbys lists shard names that get a warm standby: a -standby twin
	// behind its own listener, with the primary replicating to it.
	standbys []string
}

const (
	testR   = 1.2
	testK   = 3
	testDim = 2
)

func newCluster(t *testing.T, o clusterOpts) *cluster {
	t.Helper()
	c := &cluster{
		t: t, shards: map[string]*serve.ShardServer{}, srvs: map[string]*httptest.Server{},
		stbys: map[string]*serve.ShardServer{}, stbySrvs: map[string]*httptest.Server{},
	}
	standby := map[string]bool{}
	for _, name := range o.standbys {
		standby[name] = true
	}
	var infos []router.ShardInfo
	for i := 0; i < o.shards; i++ {
		name := fmt.Sprintf("s%d", i)
		scfg := serve.ShardServerConfig{Name: name, R: testR, K: testK, Dim: testDim}
		if o.shardTransport != nil {
			scfg.Transport = o.shardTransport(name)
		}
		info := router.ShardInfo{Name: name}
		if standby[name] {
			// The standby exists before its primary: the primary's shipper
			// dials it from the first appended op.
			sb, err := serve.NewShard(serve.ShardServerConfig{Name: name, R: testR, K: testK, Dim: testDim, Standby: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(sb.Close)
			sbSrv := httptest.NewServer(sb.Handler())
			t.Cleanup(sbSrv.Close)
			c.stbys[name] = sb
			c.stbySrvs[name] = sbSrv
			scfg.Replica = sbSrv.URL
			scfg.ReplicaInterval = 2 * time.Millisecond
			info.Standby = sbSrv.URL
		}
		ss, err := serve.NewShard(scfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.Close)
		hs := httptest.NewServer(ss.Handler())
		t.Cleanup(hs.Close)
		c.shards[name] = ss
		c.srvs[name] = hs
		info.URL = hs.URL
		infos = append(infos, info)
	}
	cfg := router.Config{
		R: testR, K: testK, Dim: testDim,
		Capacity: o.capacity,
		Shards:   infos,
		Block:    o.block,
		Retry:    retry.Policy{Base: time.Millisecond},
	}
	if o.routerOpts != nil {
		o.routerOpts(&cfg)
	}
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	c.rt = rt
	c.rtSrv = httptest.NewServer(rt.Handler())
	t.Cleanup(c.rtSrv.Close)

	ref, err := serve.New(serve.Config{Stream: stream.Config{
		R: testR, K: testK, Dim: testDim, Capacity: o.capacity,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	c.ref = ref
	c.refSrv = httptest.NewServer(ref.Handler())
	t.Cleanup(c.refSrv.Close)
	return c
}

// post sends an NDJSON body and returns (status, raw response body).
func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// both sends the same body to the router and the reference and asserts the
// responses match byte for byte.
func (c *cluster) both(path, body, label string) {
	c.t.Helper()
	refStatus, refRaw := post(c.t, c.refSrv.URL+path, body)
	gotStatus, gotRaw := post(c.t, c.rtSrv.URL+path, body)
	if gotStatus != refStatus {
		c.t.Fatalf("%s %s: status %d != reference %d\nrouter: %s\nref: %s",
			label, path, gotStatus, refStatus, gotRaw, refRaw)
	}
	if !bytes.Equal(gotRaw, refRaw) {
		c.t.Fatalf("%s %s: response diverged\nrouter: %s\nreference: %s", label, path, gotRaw, refRaw)
	}
}

// streamBatches drives an identical randomized workload through both
// systems: ingest batches with occasional malformed lines, duplicate IDs
// and wrong-dimension points (error paths must match too), interleaved
// with read-only score batches. IDs start at idBase so successive calls
// never collide.
func (c *cluster) streamBatches(rng *rand.Rand, idBase uint64, batches, perBatch int) uint64 {
	c.t.Helper()
	id := idBase
	for b := 0; b < batches; b++ {
		var sb strings.Builder
		for i := 0; i < perBatch; i++ {
			switch {
			case rng.Float64() < 0.03:
				sb.WriteString("{malformed\n")
			case rng.Float64() < 0.03 && id > idBase+10:
				// Re-ingest a recent ID: a duplicate while it is resident,
				// a clean admission if it has been evicted — either way both
				// systems must answer identically.
				dup := id - uint64(rng.Intn(10)) - 1
				fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g]}`+"\n", dup, rng.Float64()*12, rng.Float64()*12)
			case rng.Float64() < 0.02:
				id++
				fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g,%g]}`+"\n", id, rng.Float64(), rng.Float64(), rng.Float64())
			default:
				id++
				fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g]}`+"\n", id, rng.Float64()*12, rng.Float64()*12)
			}
		}
		c.both("/v1/ingest", sb.String(), fmt.Sprintf("batch %d", b))
		if b%3 == 2 {
			var sc strings.Builder
			for i := 0; i < 8; i++ {
				fmt.Fprintf(&sc, `{"id":%d,"coords":[%g,%g]}`+"\n", 1_000_000+uint64(i), rng.Float64()*12, rng.Float64()*12)
			}
			c.both("/v1/score", sc.String(), fmt.Sprintf("score after batch %d", b))
		}
	}
	return id
}

// checkFinalState compares the aggregated shard window against the
// reference: identical outlier sets and identical verdict-flip totals
// (evictions must have flipped the same points on both sides).
func (c *cluster) checkFinalState() {
	c.t.Helper()
	c.checkFinalStateAgainst(c.ref.Window())
}

// checkFinalStateAgainst is checkFinalState against any reference window.
func (c *cluster) checkFinalStateAgainst(ref *stream.Window) {
	c.t.Helper()
	snap := ref.Snapshot()
	wantOutliers := map[uint64]bool{}
	for _, id := range snap.OutlierIDs {
		wantOutliers[id] = true
	}
	topo := c.rt.Topology()
	gotOutliers := map[uint64]bool{}
	total := 0
	for _, si := range topo.Shards {
		ss := c.shards[si.Name]
		for _, e := range ss.Window().Export() {
			total++
			if e.Outlier {
				gotOutliers[e.Point.ID] = true
			}
		}
	}
	// Flip counters are monotone and stay with the shard that owned the
	// flipped resident at event time, so the global total sums over every
	// shard that ever served — including drained ones.
	var flipIn, flipOut uint64
	for _, ss := range c.shards {
		st := ss.Window().Stats()
		flipIn += st.FlipIn
		flipOut += st.FlipOut
	}
	if total != len(snap.Points) {
		c.t.Fatalf("window size: sharded %d != reference %d", total, len(snap.Points))
	}
	if len(gotOutliers) != len(wantOutliers) {
		c.t.Fatalf("outlier sets differ: sharded %d != reference %d", len(gotOutliers), len(wantOutliers))
	}
	for id := range wantOutliers {
		if !gotOutliers[id] {
			c.t.Fatalf("reference outlier %d is an inlier on the shards", id)
		}
	}
	refStats := ref.Stats()
	if flipIn != refStats.FlipIn || flipOut != refStats.FlipOut {
		c.t.Fatalf("verdict flips: sharded (%d,%d) != reference (%d,%d)",
			flipIn, flipOut, refStats.FlipIn, refStats.FlipOut)
	}
}

// drain gracefully removes a shard through the router and then kills its
// HTTP listener, as a deploy would.
func (c *cluster) drain(name string) {
	c.t.Helper()
	resp, err := http.Post(c.rtSrv.URL+"/v1/drain?shard="+name, "", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("drain %s: status %d: %s", name, resp.StatusCode, raw)
	}
	c.srvs[name].Close() // the shard is now empty and out of rotation: kill it
}

// TestRouterMatchesSingleProcess is the tentpole E2E property: for shard
// counts 1, 2 and 4 and multiple seeds, the sharded tier's NDJSON responses
// are byte-identical to a single-process server fed the same stream —
// including per-line errors, eviction counts, and the verdict flips that
// evictions cause. For multi-shard runs, one shard is drained (and its
// process killed) mid-stream.
func TestRouterMatchesSingleProcess(t *testing.T) {
	for _, nShards := range []int{1, 2, 4} {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", nShards, seed), func(t *testing.T) {
				// Block 2 forces dense shard boundaries, maximizing the
				// cross-shard support traffic under test.
				c := newCluster(t, clusterOpts{shards: nShards, capacity: 120, block: 2})
				rng := rand.New(rand.NewSource(seed))
				id := c.streamBatches(rng, 0, 8, 25)
				if nShards >= 2 {
					c.drain("s1")
				}
				c.streamBatches(rng, id, 8, 25)
				c.checkFinalState()
			})
		}
	}
}

// TestRouterBatchSplitInvariance pins the batch-API contract end to end:
// one logical stream of NDJSON lines produces the same concatenated
// response bytes no matter how it is split into request batches — size-1
// requests (the pre-batch protocol), mid-size batches, or one request for
// the whole stream — and the router stays byte-identical to the
// single-process reference at every split. Malformed lines, duplicates and
// wrong-dimension points ride along so the per-line error slots are held to
// the same invariance.
func TestRouterBatchSplitInvariance(t *testing.T) {
	const total = 120
	mkLines := func() []string {
		rng := rand.New(rand.NewSource(7))
		lines := make([]string, 0, total)
		id := uint64(0)
		for i := 0; i < total; i++ {
			switch {
			case rng.Float64() < 0.05:
				lines = append(lines, "{malformed\n")
			case rng.Float64() < 0.05 && id > 10:
				dup := id - uint64(rng.Intn(8)) - 1
				lines = append(lines, fmt.Sprintf(`{"id":%d,"coords":[%g,%g]}`+"\n", dup, rng.Float64()*12, rng.Float64()*12))
			case rng.Float64() < 0.03:
				id++
				lines = append(lines, fmt.Sprintf(`{"id":%d,"coords":[%g]}`+"\n", id, rng.Float64()))
			default:
				id++
				lines = append(lines, fmt.Sprintf(`{"id":%d,"coords":[%g,%g]}`+"\n", id, rng.Float64()*12, rng.Float64()*12))
			}
		}
		return lines
	}
	queries := func() []string {
		rng := rand.New(rand.NewSource(9))
		qs := make([]string, 24)
		for i := range qs {
			qs[i] = fmt.Sprintf(`{"id":%d,"coords":[%g,%g]}`+"\n", 2_000_000+uint64(i), rng.Float64()*12, rng.Float64()*12)
		}
		return qs
	}()

	send := func(t *testing.T, c *cluster, path string, lines []string, size int, out *bytes.Buffer) {
		t.Helper()
		for lo := 0; lo < len(lines); lo += size {
			hi := lo + size
			if hi > len(lines) {
				hi = len(lines)
			}
			body := strings.Join(lines[lo:hi], "")
			refStatus, refRaw := post(t, c.refSrv.URL+path, body)
			gotStatus, gotRaw := post(t, c.rtSrv.URL+path, body)
			if gotStatus != refStatus || !bytes.Equal(gotRaw, refRaw) {
				t.Fatalf("%s lines [%d,%d): router response diverged from reference\nrouter (%d): %s\nreference (%d): %s",
					path, lo, hi, gotStatus, gotRaw, refStatus, refRaw)
			}
			out.Write(refRaw)
		}
	}

	var wantIngest, wantScore []byte // concatenated size-1 streams
	for _, size := range []int{1, 7, total} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			c := newCluster(t, clusterOpts{shards: 2, capacity: 80, block: 2})
			var ingest, score bytes.Buffer
			send(t, c, "/v1/ingest", mkLines(), size, &ingest)
			send(t, c, "/v1/score", queries, size, &score)
			c.checkFinalState()
			if wantIngest == nil {
				wantIngest, wantScore = ingest.Bytes(), score.Bytes()
				return
			}
			if !bytes.Equal(ingest.Bytes(), wantIngest) {
				t.Errorf("size %d: concatenated ingest responses diverge from the size-1 split", size)
			}
			if !bytes.Equal(score.Bytes(), wantScore) {
				t.Errorf("size %d: concatenated score responses diverge from the size-1 split", size)
			}
		})
	}
}

// TestRequestIDPropagation covers the correlation-ID satellite: the router
// echoes caller IDs, generates one when absent, propagates it to shards,
// and embeds it in structured error bodies.
func TestRequestIDPropagation(t *testing.T) {
	c := newCluster(t, clusterOpts{shards: 2, capacity: 50, block: 2})

	// Caller-supplied ID is echoed on the response.
	req, _ := http.NewRequest(http.MethodPost, c.rtSrv.URL+"/v1/ingest",
		strings.NewReader(`{"id":1,"coords":[1,1]}`+"\n"))
	req.Header.Set(router.HeaderRequestID, "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get(router.HeaderRequestID); got != "test-req-42" {
		t.Fatalf("echoed request id = %q, want test-req-42", got)
	}

	// Absent ID: the router generates a 16-hex-char one.
	resp, err = http.Post(c.rtSrv.URL+"/healthz", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if got := resp.Header.Get(router.HeaderRequestID); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Fatalf("generated request id = %q, want 16 hex chars", got)
	}

	// Structured error bodies carry the ID.
	req, _ = http.NewRequest(http.MethodPost, c.rtSrv.URL+"/v1/drain?shard=nope", nil)
	req.Header.Set(router.HeaderRequestID, "err-req-7")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drain unknown shard: status %d", resp.StatusCode)
	}
	var errBody struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(raw, &errBody); err != nil {
		t.Fatal(err)
	}
	if errBody.Error != "unknown_shard" || errBody.RequestID != "err-req-7" {
		t.Fatalf("error body = %s, want unknown_shard with request_id err-req-7", raw)
	}

	// Shard side: a malformed wire body is rejected with the ID echoed.
	sreq, _ := http.NewRequest(http.MethodPost, c.srvs["s0"].URL+router.PathSupport,
		bytes.NewReader([]byte("garbage")))
	sreq.Header.Set(router.HeaderRequestID, "shard-req-9")
	resp, err = http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage support body: status %d: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get(router.HeaderRequestID); got != "shard-req-9" {
		t.Fatalf("shard echoed request id = %q, want shard-req-9", got)
	}
	if !strings.Contains(string(raw), "shard-req-9") {
		t.Fatalf("shard error body lacks request id: %s", raw)
	}
}

// sendAs posts an ingest batch under a tenant header and returns the
// response status, headers and raw body.
func sendAs(t *testing.T, url, tenant, body string) (int, http.Header, []byte) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/ingest", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set(router.HeaderTenant, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, raw
}

func ingestLine(id uint64) string { return fmt.Sprintf(`{"id":%d,"coords":[1,1]}`+"\n", id) }

// TestTenantRateLimit covers the token-bucket half of the multi-tenant
// admission satellite: over-rate tenants are shed with 429 + Retry-After
// while other tenants keep flowing.
func TestTenantRateLimit(t *testing.T) {
	c := newCluster(t, clusterOpts{shards: 1, capacity: 50, block: 2, routerOpts: func(cfg *router.Config) {
		cfg.TenantRPS = 0.001 // effectively no refill during the test
		cfg.TenantBurst = 2
	}})
	// Burst of 2 for tenant a: third request is shed.
	if st, _, _ := sendAs(t, c.rtSrv.URL, "a", ingestLine(1)); st != http.StatusOK {
		t.Fatalf("a request 1: status %d", st)
	}
	if st, _, _ := sendAs(t, c.rtSrv.URL, "a", ingestLine(2)); st != http.StatusOK {
		t.Fatalf("a request 2: status %d", st)
	}
	st, hdr, raw := sendAs(t, c.rtSrv.URL, "a", ingestLine(3))
	if st != http.StatusTooManyRequests {
		t.Fatalf("a request 3: status %d, want 429", st)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatalf("429 lacks Retry-After: %s", raw)
	}
	if !strings.Contains(string(raw), "rate_limited") {
		t.Fatalf("429 body = %s, want rate_limited", raw)
	}
	// Tenant b has its own bucket.
	if st, _, _ := sendAs(t, c.rtSrv.URL, "b", ingestLine(4)); st != http.StatusOK {
		t.Fatalf("b request 1: status %d (buckets must be per-tenant)", st)
	}
}

// TestTenantQuota covers the lifetime-quota half: once a tenant's ingested
// lines would exceed its quota the whole batch is rejected — without
// charging the rejected batch, so a smaller one can still fit.
func TestTenantQuota(t *testing.T) {
	c := newCluster(t, clusterOpts{shards: 1, capacity: 50, block: 2, routerOpts: func(cfg *router.Config) {
		cfg.TenantQuota = 10
	}})
	var big strings.Builder
	for i := uint64(10); i < 18; i++ {
		big.WriteString(ingestLine(i))
	}
	if st, _, _ := sendAs(t, c.rtSrv.URL, "b", big.String()); st != http.StatusOK {
		t.Fatalf("b batch 1 (8 lines): status %d", st)
	}
	var over strings.Builder
	for i := uint64(20); i < 25; i++ {
		over.WriteString(ingestLine(i))
	}
	st, _, raw := sendAs(t, c.rtSrv.URL, "b", over.String())
	if st != http.StatusTooManyRequests || !strings.Contains(string(raw), "quota_exceeded") {
		t.Fatalf("b over-quota batch: status %d body %s, want 429 quota_exceeded", st, raw)
	}
	if st, _, _ := sendAs(t, c.rtSrv.URL, "b", ingestLine(30)+ingestLine(31)); st != http.StatusOK {
		t.Fatalf("b final 2-line batch: status %d (rejected batch must not consume quota)", st)
	}
	// Other tenants have independent quotas.
	if st, _, _ := sendAs(t, c.rtSrv.URL, "c", ingestLine(40)); st != http.StatusOK {
		t.Fatalf("c request: status %d (quotas must be per-tenant)", st)
	}
}

// TestDrainPreservesWindow drains shards down to one and checks the full
// window (every resident, count and verdict) survives the handoffs.
func TestDrainPreservesWindow(t *testing.T) {
	c := newCluster(t, clusterOpts{shards: 3, capacity: 100, block: 2})
	rng := rand.New(rand.NewSource(5))
	id := c.streamBatches(rng, 0, 4, 25)
	c.drain("s0")
	id = c.streamBatches(rng, id, 2, 25)
	c.drain("s2")
	c.streamBatches(rng, id, 2, 25)
	c.checkFinalState()
	topo := c.rt.Topology()
	if len(topo.Shards) != 1 || topo.Shards[0].Name != "s1" {
		t.Fatalf("topology after drains = %+v, want only s1", topo.Shards)
	}
}
