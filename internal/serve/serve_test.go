package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/httpapi"
	"dod/internal/stream"
)

func newTestServer(t *testing.T, cfg stream.Config) (*Server, *httptest.Server) {
	t.Helper()
	// Room for every request TestConcurrentRequests keeps in flight.
	s, err := New(Config{Stream: cfg, FrontConfig: httpapi.FrontConfig{MaxInflight: 8}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// ndjsonBody renders points as an NDJSON request body.
func ndjsonBody(ids []uint64, coords [][]float64) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, id := range ids {
		enc.Encode(httpapi.PointLine{ID: id, Coords: coords[i]})
	}
	return &buf
}

func postLines[T any](t *testing.T, url string, body io.Reader) []T {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out []T
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line T
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad response line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndToEndMatchesCentralized is the acceptance-criteria test: scoring
// verdicts served over HTTP equal dod.DetectCentralized on the identical
// window contents.
func TestEndToEndMatchesCentralized(t *testing.T) {
	const (
		r = 1.2
		k = 3
		n = 500
	)
	srv, ts := newTestServer(t, stream.Config{R: r, K: k, Dim: 2, Capacity: n, Shards: 8})

	rng := rand.New(rand.NewSource(17))
	ids := make([]uint64, n)
	coords := make([][]float64, n)
	for i := range ids {
		ids[i] = uint64(i)
		coords[i] = []float64{rng.Float64() * 12, rng.Float64() * 12}
	}
	verdicts := postLines[httpapi.VerdictLine](t, ts.URL+"/v1/ingest", ndjsonBody(ids, coords))
	if len(verdicts) != n {
		t.Fatalf("got %d verdict lines, want %d", len(verdicts), n)
	}
	for i, v := range verdicts {
		if v.Error != "" {
			t.Fatalf("line %d: %s", i, v.Error)
		}
		if v.Seq != uint64(i+1) {
			t.Fatalf("line %d: seq %d, want %d", i, v.Seq, i+1)
		}
	}

	// Batch reference on the exact same window contents.
	snap := srv.Window().Snapshot()
	ref := core.DetectCentralized(snap.Points, detect.BruteForce, detect.Params{R: r, K: k}, 1)
	refSet := make(map[uint64]bool, len(ref.OutlierIDs))
	for _, id := range ref.OutlierIDs {
		refSet[id] = true
	}

	// Scoring every resident point over HTTP must reproduce the batch
	// verdict (self-exclusion matches: the window skips the query's ID).
	scores := postLines[httpapi.ScoreLine](t, ts.URL+"/v1/score", ndjsonBody(ids, coords))
	if len(scores) != n {
		t.Fatalf("got %d score lines, want %d", len(scores), n)
	}
	for _, sc := range scores {
		if sc.Error != "" {
			t.Fatal(sc.Error)
		}
		if sc.Outlier != refSet[sc.ID] {
			t.Fatalf("point %d: served outlier=%v, batch says %v", sc.ID, sc.Outlier, refSet[sc.ID])
		}
	}

	// The window's own incremental verdicts agree too.
	if !reflect.DeepEqual(snap.OutlierIDs, ref.OutlierIDs) && !sameIDSet(snap.OutlierIDs, ref.OutlierIDs) {
		t.Fatalf("window outliers %v != batch %v", snap.OutlierIDs, ref.OutlierIDs)
	}
}

func sameIDSet(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[uint64]bool, len(a))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		if !set[id] {
			return false
		}
	}
	return true
}

// TestConcurrentRequests hammers ingest and score concurrently over real
// HTTP, then cross-validates the final window against the batch detector.
func TestConcurrentRequests(t *testing.T) {
	const (
		r = 1.0
		k = 3
	)
	srv, ts := newTestServer(t, stream.Config{R: r, K: k, Dim: 2, Capacity: 400, Shards: 8})

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for batch := 0; batch < 5; batch++ {
				ids := make([]uint64, 50)
				coords := make([][]float64, 50)
				for i := range ids {
					ids[i] = uint64(g*10_000 + batch*50 + i)
					coords[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
				}
				resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", ndjsonBody(ids, coords))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for batch := 0; batch < 5; batch++ {
				ids := make([]uint64, 50)
				coords := make([][]float64, 50)
				for i := range ids {
					ids[i] = uint64(1_000_000 + g*10_000 + batch*50 + i)
					coords[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
				}
				resp, err := http.Post(ts.URL+"/v1/score", "application/x-ndjson", ndjsonBody(ids, coords))
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := srv.Window().Snapshot()
	ref := core.DetectCentralized(snap.Points, detect.BruteForce, detect.Params{R: r, K: k}, 1)
	if !sameIDSet(snap.OutlierIDs, ref.OutlierIDs) {
		t.Fatalf("after concurrent load: window outliers %v != batch %v", snap.OutlierIDs, ref.OutlierIDs)
	}
	st := srv.Window().Stats()
	if st.Ingested != 4*5*50 {
		t.Fatalf("ingested %d, want %d", st.Ingested, 4*5*50)
	}
}

func TestPerLineErrors(t *testing.T) {
	_, ts := newTestServer(t, stream.Config{R: 1, K: 2, Dim: 2, Capacity: 10})
	body := strings.NewReader(`{"id":1,"coords":[0,0]}
not json at all
{"id":1,"coords":[0.1,0.1]}
{"id":2,"coords":[1,2,3]}
{"id":3,"coords":[0.2,0]}
`)
	verdicts := postLines[httpapi.VerdictLine](t, ts.URL+"/v1/ingest", body)
	if len(verdicts) != 5 {
		t.Fatalf("got %d lines, want 5", len(verdicts))
	}
	if verdicts[0].Error != "" || verdicts[4].Error != "" {
		t.Fatalf("good lines errored: %+v / %+v", verdicts[0], verdicts[4])
	}
	if verdicts[1].Error == "" {
		t.Fatal("malformed line accepted")
	}
	if verdicts[2].Error == "" {
		t.Fatal("duplicate ID accepted")
	}
	if verdicts[3].Error == "" {
		t.Fatal("wrong-dimension point accepted")
	}
}

func TestMethodsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, stream.Config{R: 1, K: 2, Dim: 2, Capacity: 10})
	resp, err := http.Get(ts.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ingest: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz %+v", health)
	}
}

func TestStatsz(t *testing.T) {
	_, ts := newTestServer(t, stream.Config{R: 2, K: 1, Dim: 2, Capacity: 3, Shards: 4})
	ids := []uint64{1, 2, 3, 4}
	coords := [][]float64{{0, 0}, {0.5, 0}, {9, 9}, {0.5, 0.5}}
	postLines[httpapi.VerdictLine](t, ts.URL+"/v1/ingest", ndjsonBody(ids, coords))
	postLines[httpapi.ScoreLine](t, ts.URL+"/v1/score", ndjsonBody([]uint64{10}, [][]float64{{0, 0}}))

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type latency struct {
		Count int64 `json:"count"`
	}
	var st struct {
		IngestRequests int64   `json:"ingest_requests"`
		ScoreRequests  int64   `json:"score_requests"`
		PointsIngested uint64  `json:"points_ingested"`
		PointsEvicted  uint64  `json:"points_evicted"`
		LinesScored    int64   `json:"lines_scored"`
		WindowLen      int     `json:"window_len"`
		ShardOccupancy []int   `json:"shard_occupancy"`
		IngestLatency  latency `json:"ingest_latency"`
		ScoreLatency   latency `json:"score_latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.PointsIngested != 4 || st.PointsEvicted != 1 || st.WindowLen != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.LinesScored != 1 || st.ScoreRequests != 1 || st.IngestRequests != 1 {
		t.Fatalf("request counters %+v", st)
	}
	if len(st.ShardOccupancy) != 4 {
		t.Fatalf("occupancy %v, want 4 shards", st.ShardOccupancy)
	}
	total := 0
	for _, n := range st.ShardOccupancy {
		total += n
	}
	if total != st.WindowLen {
		t.Fatalf("occupancy sums to %d, window len %d", total, st.WindowLen)
	}
	if st.IngestLatency.Count != 4 || st.ScoreLatency.Count != 1 {
		t.Fatalf("latency counts %+v", st)
	}
}

func TestTTLBackgroundEviction(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{R: 1, K: 1, Dim: 1, TTL: 200 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson",
		strings.NewReader(`{"id":1,"coords":[0]}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Window().Stats().Len != 0 {
		if time.Now().After(deadline) {
			t.Fatal("background evictor never drained the idle window")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestBatchLimit(t *testing.T) {
	s, err := New(Config{Stream: stream.Config{R: 1, K: 1, Dim: 1, Capacity: 10}, FrontConfig: httpapi.FrontConfig{MaxBatch: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&buf, `{"id":%d,"coords":[%d]}`+"\n", i, i)
	}
	resp, err := http.Post(ts.URL+"/v1/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestIngestHandlerAllocs pins the ingest handler's allocation ceiling on a
// window at capacity, where every admitted line also evicts: parse, window
// and encode together measured 0.51 allocations per line — the window
// itself allocates nothing per point — and the ceiling is that plus 10 %. The count covers the whole process — the front end's
// request ID, admission and pooled batch, and the ingest running on the
// handler goroutine — plus the test's own request and recorder, which the
// batch size amortizes.
func TestIngestHandlerAllocs(t *testing.T) {
	const (
		capacity = 1000
		lines    = 500
		runs     = 8
		ceiling  = 0.51 * 1.1
	)
	s, err := New(Config{Stream: stream.Config{R: 1.2, K: 3, Dim: 2, Capacity: capacity}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	rng := rand.New(rand.NewSource(5))
	id := uint64(0)
	batch := func(n int) []byte {
		var buf bytes.Buffer
		for i := 0; i < n; i++ {
			id++
			fmt.Fprintf(&buf, `{"id":%d,"coords":[%g,%g]}`+"\n", id, rng.Float64()*30, rng.Float64()*30)
		}
		return buf.Bytes()
	}
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || bytes.Contains(rec.Body.Bytes(), []byte(`"error"`)) {
			t.Fatalf("ingest: status %d: %.200s", rec.Code, rec.Body.Bytes())
		}
	}
	post(batch(capacity))
	// AllocsPerRun calls the function once to warm up, then runs times.
	bodies := make([][]byte, runs+1)
	for i := range bodies {
		bodies[i] = batch(lines)
	}
	next := 0
	perRun := testing.AllocsPerRun(runs, func() {
		post(bodies[next])
		next++
	})
	if st := s.Window().Stats(); st.Len != capacity || st.Evicted != uint64((runs+1)*lines) {
		t.Fatalf("window not at capacity throughout: %+v", st)
	}
	if perLine := perRun / lines; perLine > ceiling {
		t.Errorf("ingest handler: %.2f allocations per line, ceiling %.2f", perLine, ceiling)
	} else {
		t.Logf("ingest handler: %.2f allocations per line", perLine)
	}
}
