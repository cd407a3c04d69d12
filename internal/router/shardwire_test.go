// The shard wire, pinned: every body the router sends its shards and every
// NDJSON line it answers, over a seeded stream at capacity, hashed into
// testdata/shardwire.golden. Cell order, probe order, op order and the
// bytes of each wave body are part of the protocol; a change to how the
// router or a shard builds or decodes them must leave this file alone.
package router_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dod/internal/httpapi"
	"dod/internal/retry"
	"dod/internal/router"
	"dod/internal/serve"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/shardwire.golden from the bodies this tree sends")

// The wire tier's parameters: three shards on 2-cell blocks, so nearly
// every point's 7×7-cell neighbourhood spans two or more shards, and a
// window small enough that every ingest past the prefill evicts.
const (
	wireShards   = 3
	wireR        = 1.2
	wireK        = 4
	wireCapacity = 300
	wireLines    = 50
	wireSide     = 20.0 // points are uniform on [0, wireSide)²
)

// wireEpoch is the tier's only instant: arrival stamps travel in wave-two
// headers and window digests, so the clock must not move.
var wireEpoch = time.Unix(1_700_000_000, 0)

// wireTier is a router in front of wireShards shard servers over loopback
// HTTP. Requests reach the router's handler directly.
type wireTier struct {
	t      testing.TB
	rt     *router.Router
	h      http.Handler
	names  map[string]string // shard host → shard name
	shards []*serve.ShardServer
}

// newWireTier starts the tier; a non-nil transport carries every
// router→shard call.
func newWireTier(t testing.TB, transport http.RoundTripper) *wireTier {
	t.Helper()
	w := &wireTier{t: t, names: map[string]string{}}
	var infos []router.ShardInfo
	for i := 0; i < wireShards; i++ {
		name := fmt.Sprintf("s%d", i)
		ss, err := serve.NewShard(serve.ShardServerConfig{Name: name, R: wireR, K: wireK, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.Close)
		hs := httptest.NewServer(ss.Handler())
		t.Cleanup(hs.Close)
		w.shards = append(w.shards, ss)
		w.names[strings.TrimPrefix(hs.URL, "http://")] = name
		infos = append(infos, router.ShardInfo{Name: name, URL: hs.URL})
	}
	cfg := router.Config{
		R: wireR, K: wireK, Dim: 2, Capacity: wireCapacity, Shards: infos, Block: 2,
		Transport: transport,
		Retry:     retry.Policy{Base: time.Millisecond},
	}
	router.SetClock(&cfg, func() time.Time { return wireEpoch })
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	w.rt, w.h = rt, rt.Handler()
	return w
}

// post sends one NDJSON request under reqID and returns the response body,
// failing on anything but a 200 without line errors.
func (w *wireTier) post(path, reqID string, body []byte) []byte {
	w.t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set(router.HeaderRequestID, reqID)
	w.h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
		w.t.Fatalf("%s %s: status %d: %.300s", path, reqID, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// wireRequest is one request of the seeded stream.
type wireRequest struct {
	path, reqID string
	body        []byte
}

// wireStream is the seeded workload: ingests that fill the window, then
// `rounds` ingest requests each followed by a score request, every request
// wireLines lines of uniform points.
func wireStream(seed int64, rounds int) []wireRequest {
	rng := rand.New(rand.NewSource(seed))
	id := uint64(0)
	lines := func(ingest bool) []byte {
		var b bytes.Buffer
		for i := 0; i < wireLines; i++ {
			qid := 1_000_000 + uint64(rng.Intn(1000))
			if ingest {
				id++
				qid = id
			}
			fmt.Fprintf(&b, `{"id":%d,"coords":[%g,%g]}`+"\n", qid, rng.Float64()*wireSide, rng.Float64()*wireSide)
		}
		return b.Bytes()
	}
	var reqs []wireRequest
	for i := 0; i < wireCapacity/wireLines; i++ {
		reqs = append(reqs, wireRequest{"/v1/ingest", fmt.Sprintf("fill-%03d", i), lines(true)})
	}
	for i := 0; i < rounds; i++ {
		reqs = append(reqs, wireRequest{"/v1/ingest", fmt.Sprintf("ingest-%03d", i), lines(true)})
		reqs = append(reqs, wireRequest{"/v1/score", fmt.Sprintf("score-%03d", i), lines(false)})
	}
	return reqs
}

// wireCall is one recorded router→shard data-plane call.
type wireCall struct {
	path, key, shard string
	body             []byte
}

// wireRecorder records the body of every wave and score call on its way to
// a shard; health probes and topology pushes pass unrecorded.
type wireRecorder struct {
	next  http.RoundTripper
	mu    sync.Mutex
	calls []wireCall
}

func (r *wireRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && (req.URL.Path == router.PathSupport || req.URL.Path == router.PathShardIngestBatch) {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body.Close()
		req.Body = io.NopCloser(bytes.NewReader(body))
		r.mu.Lock()
		r.calls = append(r.calls, wireCall{req.URL.Path, req.Header.Get(router.HeaderRequestID), req.URL.Host, body})
		r.mu.Unlock()
	}
	return r.next.RoundTrip(req)
}

// take returns the calls recorded since the last take, each shard named by
// names (host → name). A wave's calls run concurrently, so they are put in
// (path, key, shard, body) order, which names each call by request,
// segment, wave and shard.
func (r *wireRecorder) take(names map[string]string) []wireCall {
	r.mu.Lock()
	calls := r.calls
	r.calls = nil
	r.mu.Unlock()
	for i := range calls {
		calls[i].shard = names[calls[i].shard]
	}
	sort.Slice(calls, func(i, j int) bool {
		a, b := calls[i], calls[j]
		if a.path != b.path {
			return a.path < b.path
		}
		if a.key != b.key {
			return a.key < b.key
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return bytes.Compare(a.body, b.body) < 0
	})
	return calls
}

// fnv64 is FNV-64a over b.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// TestShardWireGolden drives the seeded stream through a recorded tier and
// compares, request by request, the hash of every shard call's body and of
// the NDJSON response, then every shard window's final digest, against
// testdata/shardwire.golden. Regenerate with -update only for a deliberate
// protocol change.
func TestShardWireGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden pinned on amd64: other architectures may fuse the distance kernel's multiply-adds")
	}
	rec := &wireRecorder{next: httpapi.NewTransport()}
	w := newWireTier(t, rec)
	var out strings.Builder
	for _, req := range wireStream(7, 12) {
		resp := w.post(req.path, req.reqID, req.body)
		fmt.Fprintf(&out, "%s %s resp=%016x\n", req.path, req.reqID, fnv64(resp))
		for _, c := range rec.take(w.names) {
			fmt.Fprintf(&out, "  %s key=%q shard=%s bytes=%d fnv=%016x\n",
				c.path, c.key, c.shard, len(c.body), fnv64(c.body))
		}
	}
	for i, ss := range w.shards {
		h, n := ss.Window().Digest()
		fmt.Fprintf(&out, "digest s%d residents=%d %016x\n", i, n, h)
	}
	path := filepath.Join("testdata", "shardwire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	got := out.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("shard wire moved at golden line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("shard wire moved: %d golden lines, want %d", len(gl), len(wl))
}
