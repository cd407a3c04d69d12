// Warm-standby replication tests at the serving layer: a real primary and
// standby ShardServer pair over HTTP, exercising op shipping, digest
// anti-entropy, snapshot bootstrap, readiness gating, promotion and the
// replicated idempotency cache — the pieces the router's failover
// transaction composes.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/detect"
	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/index"
	"dod/internal/replica"
	"dod/internal/router"
	"dod/internal/stream"
)

const (
	pairR   = 1.2
	pairK   = 3
	pairDim = 2
)

// replicaPair is a primary shard replicating to a warm standby, both behind
// real listeners. The standby sits behind a swappable handler so tests can
// model a standby process restart (the bootstrap-from-snapshot path) without
// changing the URL the primary ships to.
type replicaPair struct {
	t        *testing.T
	primary  *ShardServer
	standby  *ShardServer
	primSrv  *httptest.Server
	stbySrv  *httptest.Server
	stbySwap *atomic.Value // holds http.Handler
	seq      uint64
}

func newStandby(t *testing.T) *ShardServer {
	t.Helper()
	sb, err := NewShard(ShardServerConfig{Name: "s0", R: pairR, K: pairK, Dim: pairDim, Standby: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sb.Close)
	return sb
}

func newReplicaPair(t *testing.T) *replicaPair {
	t.Helper()
	p := &replicaPair{t: t, stbySwap: &atomic.Value{}}
	p.standby = newStandby(t)
	p.stbySwap.Store(p.standby.Handler())
	p.stbySrv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.stbySwap.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(p.stbySrv.Close)

	primary, err := NewShard(ShardServerConfig{
		Name: "s0", R: pairR, K: pairK, Dim: pairDim,
		Replica:         p.stbySrv.URL,
		ReplicaInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	p.primary = primary
	p.primSrv = httptest.NewServer(primary.Handler())
	t.Cleanup(p.primSrv.Close)

	p.pushTopology(p.primSrv.URL, 1, p.primSrv.URL)
	return p
}

// pushTopology POSTs a single-shard ownership view to a server.
func (p *replicaPair) pushTopology(target string, epoch int64, shardURL string) {
	p.t.Helper()
	topo := router.Topology{
		Epoch: epoch, Dim: pairDim, R: pairR, K: pairK, Block: 2,
		Shards: []router.ShardInfo{{Name: "s0", URL: shardURL}},
	}
	raw, err := json.Marshal(&topo)
	if err != nil {
		p.t.Fatal(err)
	}
	status, body := postBody(p.t, target+router.PathShardTopology, "", raw)
	if status != http.StatusOK {
		p.t.Fatalf("topology push to %s: status %d: %s", target, status, body)
	}
}

// postBody POSTs raw bytes with an optional idempotency key.
func postBody(t *testing.T, url, reqID string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if reqID != "" {
		req.Header.Set(router.HeaderRequestID, reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// admitOp is a one-op segment admitting (x, y) as the seq-th point.
func admitOp(id, seq uint64, x, y float64) []stream.ShardOp {
	return []stream.ShardOp{{Kind: stream.OpAdmit, Point: geom.Point{ID: id, Coords: []float64{x, y}}, Seq: seq}}
}

// ingest admits one point through the primary's batched endpoint.
func (p *replicaPair) ingest(id uint64, x, y float64) {
	p.t.Helper()
	p.seq++
	p.batch(fmt.Sprintf("ing-%d", id), int64(p.seq), admitOp(id, p.seq, x, y))
}

// batch applies one ordered segment through the primary's batched endpoint
// and returns the raw response.
func (p *replicaPair) batch(reqID string, arrivedNs int64, ops []stream.ShardOp) []byte {
	p.t.Helper()
	body := router.EncodeIngestBatch(router.IngestBatchHeader{ArrivedNs: arrivedNs, Count: len(ops)}, ops)
	status, raw := postBody(p.t, p.primSrv.URL+router.PathShardIngestBatch, reqID, body)
	if status != http.StatusOK || bytes.Contains(raw, []byte(`"error"`)) {
		p.t.Fatalf("batch %s: status %d: %s", reqID, status, raw)
	}
	return raw
}

// cellsAround lists the grid cells of the neighborhood of (x, y).
func cellsAround(t *testing.T, x, y float64) [][]int64 {
	t.Helper()
	ix, err := index.New(index.Config{Dim: pairDim, R: pairR})
	if err != nil {
		t.Fatal(err)
	}
	var cells [][]int64
	center := ix.CellCoords(geom.Point{Coords: []float64{x, y}})
	index.NewCountScratch().WalkNeighborhood(center, detect.L2Radius(pairDim), func(c []int64) {
		cells = append(cells, append([]int64(nil), c...))
	})
	return cells
}

// evict expires one resident through the primary's batched endpoint.
func (p *replicaPair) evict(id uint64) {
	p.t.Helper()
	before := p.primary.Window().Stats().Evicted
	p.batch(fmt.Sprintf("evc-%d", id), 0, []stream.ShardOp{{Kind: stream.OpEvict, ID: id}})
	if got := p.primary.Window().Stats().Evicted; got != before+1 {
		p.t.Fatalf("evict %d: evicted count %d -> %d, want +1", id, before, got)
	}
}

// waitSynced polls the primary's replication status until the standby has
// acked its whole log.
func (p *replicaPair) waitSynced() replica.StatusResponse {
	p.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var st replica.StatusResponse
	for time.Now().Before(deadline) {
		getJSON(p.t, p.primSrv.URL+replica.PathStatus, &st)
		if st.Role == "primary" && st.Synced {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.t.Fatalf("standby never caught up: last primary status %+v", st)
	return st
}

func digestOf(t *testing.T, base string) replica.DigestResponse {
	t.Helper()
	var d replica.DigestResponse
	if status := getJSON(t, base+replica.PathDigest, &d); status != http.StatusOK {
		t.Fatalf("digest from %s: status %d", base, status)
	}
	return d
}

// TestReplicaMirrorsPrimary streams admissions and evictions through a
// primary and asserts the standby converges to a bit-identical window: same
// digest, same point count, digest anchored at the same log position.
func TestReplicaMirrorsPrimary(t *testing.T) {
	p := newReplicaPair(t)
	for i := uint64(1); i <= 30; i++ {
		p.ingest(i, float64(i%5), float64(i%4))
	}
	p.evict(3)
	p.evict(17)
	// One coalesced segment carrying all four op kinds, as the router's wave
	// two sends it: an own eviction and admission, and the ±1s another
	// shard's admission and eviction owe this shard's residents.
	p.batch("seg-1", 5000, []stream.ShardOp{
		{Kind: stream.OpEvict, ID: 4},
		{Kind: stream.OpSupport, Point: geom.Point{ID: 900, Coords: []float64{2.2, 1.1}}, Cells: cellsAround(t, 2.2, 1.1), Delta: +1},
		{Kind: stream.OpAdmit, Point: geom.Point{ID: 31, Coords: []float64{2.1, 1.9}}, Seq: 31, Foreign: 2},
		{Kind: stream.OpSupport, Point: geom.Point{ID: 901, Coords: []float64{0.3, 3.1}}, Cells: cellsAround(t, 0.3, 3.1), Delta: -1},
	})

	st := p.waitSynced()
	if st.Head == 0 || st.Acked != st.Head {
		t.Fatalf("primary status after sync: %+v", st)
	}
	dp := digestOf(t, p.primSrv.URL)
	ds := digestOf(t, p.stbySrv.URL)
	if dp.Digest != ds.Digest || dp.Points != ds.Points {
		t.Fatalf("digest diverged: primary %+v standby %+v", dp, ds)
	}
	if dp.Seq != st.Head || ds.Seq != st.Head {
		t.Fatalf("digest seq anchors: primary %d standby %d, want %d", dp.Seq, ds.Seq, st.Head)
	}
	if dp.Points != 28 {
		t.Fatalf("points = %d, want 28 (31 admitted - 3 evicted)", dp.Points)
	}

	// The standby's window state is the primary's, entry for entry.
	if got, want := p.standby.Window().Stats(), p.primary.Window().Stats(); got.Len != want.Len ||
		got.Outliers != want.Outliers || got.FlipIn != want.FlipIn || got.FlipOut != want.FlipOut {
		t.Fatalf("standby stats %+v != primary stats %+v", got, want)
	}
}

// TestLogIsTheSegment: the replication log carries the very ops wave 2
// delivers. With the standby unreachable (so acks trim nothing), one
// ingest_batch mixing all three kinds and one op that fails must leave in the
// primary's log exactly the successful steps, in order, each decoding to the
// stream.ShardOp the router sent and stamped with the batch's arrival
// instant; once the standby is back, replaying that log lands it on the
// primary's digest at the same position.
func TestLogIsTheSegment(t *testing.T) {
	p := newReplicaPair(t)
	for i := uint64(1); i <= 12; i++ {
		p.ingest(i, float64(i%4), float64(i%3))
	}
	from := p.waitSynced().Head + 1
	p.stbySwap.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "standby down", http.StatusServiceUnavailable)
	}))

	const arrivedNs = 987654321
	sent := []stream.ShardOp{
		{Kind: stream.OpEvict, ID: 2},
		{Kind: stream.OpEvict, ID: 999}, // not resident: refused, not logged
		{Kind: stream.OpSupport, Point: geom.Point{ID: 900, Coords: []float64{2.2, 1.1}}, Cells: cellsAround(t, 2.2, 1.1), Delta: +1},
		{Kind: stream.OpAdmit, Point: geom.Point{ID: 13, Coords: []float64{2.1, 1.9}}, Seq: 13, Foreign: 2},
		{Kind: stream.OpSupport, Point: geom.Point{ID: 901, Coords: []float64{0.3, 2.1}}, Cells: cellsAround(t, 0.3, 2.1), Delta: -1},
	}
	p.batch("seg-log", arrivedNs, sent)
	if n := p.primary.met.opErrors.Value(); n != 1 {
		t.Fatalf("dod_shard_op_errors_total = %d, want 1 (the non-resident evict)", n)
	}

	logged, head, ok := p.primary.replog.Window(from, 0)
	if !ok {
		t.Fatalf("log trimmed below %d with the standby down", from)
	}
	want := append(append([]stream.ShardOp(nil), sent[0]), sent[2:]...)
	// After the segment's steps comes its idempotency-cache entry.
	if len(logged) != len(want)+1 || head != from+uint64(len(want)) {
		t.Fatalf("log holds %d ops up to %d, want %d window ops + 1 dedupe from %d", len(logged), head, len(want), from)
	}
	for i, raw := range logged {
		op, err := replica.DecodeOp(raw)
		if err != nil {
			t.Fatalf("log op %d: %v", i, err)
		}
		if op.Seq != from+uint64(i) {
			t.Fatalf("log op %d: seq %d, want %d", i, op.Seq, from+uint64(i))
		}
		if i == len(want) {
			if op.Kind != replica.KindDedupe || op.ReqID != "seg-log" {
				t.Fatalf("log tail = kind %d req %q, want the batch's dedupe entry", op.Kind, op.ReqID)
			}
			break
		}
		if op.Kind != replica.KindWindow || op.ArrivedNs != arrivedNs || !reflect.DeepEqual(op.ShardOp, want[i]) {
			t.Fatalf("log op %d = kind %d at %d: %+v\nwant the op the router sent, at %d: %+v",
				i, op.Kind, op.ArrivedNs, op.ShardOp, arrivedNs, want[i])
		}
	}

	p.stbySwap.Store(p.standby.Handler())
	st := p.waitSynced()
	dp, ds := digestOf(t, p.primSrv.URL), digestOf(t, p.stbySrv.URL)
	if dp.Seq != st.Head || ds.Seq != st.Head || dp.Digest != ds.Digest || dp.Points != ds.Points {
		t.Fatalf("after replaying the segment: primary %+v standby %+v, head %d", dp, ds, st.Head)
	}
}

// TestStandbyReadyzGatesOnSync pins the readiness satellite: a standby
// answers 503 until it has bootstrapped and caught up with its primary, then
// 200 — and reports its replication role on /healthz either way.
func TestStandbyReadyzGatesOnSync(t *testing.T) {
	lone := newStandby(t)
	loneSrv := httptest.NewServer(lone.Handler())
	t.Cleanup(loneSrv.Close)

	var rz struct {
		Ready   bool `json:"ready"`
		Standby bool `json:"standby"`
		Synced  bool `json:"synced"`
	}
	if status := getJSON(t, loneSrv.URL+"/readyz", &rz); status != http.StatusServiceUnavailable {
		t.Fatalf("unsynced standby readyz: status %d, want 503", status)
	}
	if !rz.Standby || rz.Synced || rz.Ready {
		t.Fatalf("unsynced standby readyz body: %+v", rz)
	}

	p := newReplicaPair(t)
	p.ingest(1, 1, 1)
	p.waitSynced()
	if status := getJSON(t, p.stbySrv.URL+"/readyz", &rz); status != http.StatusOK || !rz.Ready || !rz.Synced {
		t.Fatalf("synced standby readyz: status %d body %+v, want 200 ready", status, rz)
	}

	var hz struct {
		Replica struct {
			Role string `json:"role"`
		} `json:"replica"`
	}
	getJSON(t, p.stbySrv.URL+"/healthz", &hz)
	if hz.Replica.Role != "standby" {
		t.Fatalf("standby healthz role = %q", hz.Replica.Role)
	}
	getJSON(t, p.primSrv.URL+"/healthz", &hz)
	if hz.Replica.Role != "primary" {
		t.Fatalf("primary healthz role = %q", hz.Replica.Role)
	}
}

// TestSnapshotBootstrap models a standby process restart: a fresh standby
// appears behind the same URL after the primary's log has been trimmed by
// acks, so tailing is impossible — the shipper must fall back to a
// codec-framed snapshot (window + topology), then resume tailing ops.
func TestSnapshotBootstrap(t *testing.T) {
	p := newReplicaPair(t)
	for i := uint64(1); i <= 20; i++ {
		p.ingest(i, float64(i%5), float64(i%4))
	}
	p.waitSynced() // acks advanced: the log below the head is trimmed

	// The standby "process" dies and a fresh one starts at the same URL.
	fresh := newStandby(t)
	p.stbySwap.Store(fresh.Handler())

	// New traffic ships ops past the fresh standby's empty cursor: it must
	// answer NeedSnapshot, bootstrap, then tail to parity.
	for i := uint64(21); i <= 25; i++ {
		p.ingest(i, float64(i%5), float64(i%4))
	}
	p.waitSynced()
	dp, ds := digestOf(t, p.primSrv.URL), digestOf(t, p.stbySrv.URL)
	if dp.Digest != ds.Digest || dp.Seq != ds.Seq || dp.Points != ds.Points {
		t.Fatalf("post-bootstrap digest diverged: primary %+v standby %+v", dp, ds)
	}

	// The snapshot carried the topology: the fresh standby knows the epoch
	// without ever seeing a router push.
	var hz struct {
		Epoch int64 `json:"epoch"`
	}
	getJSON(t, p.stbySrv.URL+"/healthz", &hz)
	if hz.Epoch != 1 {
		t.Fatalf("bootstrapped standby epoch = %d, want 1", hz.Epoch)
	}

	// And the primary counted the bootstrap.
	if n := metricValue(t, p.primSrv.URL, "dod_replica_snapshots_total"); n < 1 {
		t.Fatalf("dod_replica_snapshots_total = %g, want >= 1", n)
	}
}

// TestPromotionFlipsStandby covers the promotion handshake: a topology push
// at a standby flips it to primary — it refuses further replica applies with
// the "promoted" code (which halts the old primary's shipper) — and a
// replayed idempotency key answers the exact bytes the old primary recorded,
// making a router retry across the failover exactly-once.
func TestPromotionFlipsStandby(t *testing.T) {
	p := newReplicaPair(t)
	for i := uint64(1); i <= 10; i++ {
		p.ingest(i, float64(i%3), float64(i%3))
	}

	// An ordered segment under one idempotency key, as the router sends.
	ops := []stream.ShardOp{
		{Kind: stream.OpAdmit, Point: geom.Point{ID: 100, Coords: []float64{1, 1}}, Seq: 1000},
		{Kind: stream.OpEvict, ID: 2},
		{Kind: stream.OpAdmit, Point: geom.Point{ID: 101, Coords: []float64{1.1, 1}}, Seq: 1001},
	}
	batch := router.EncodeIngestBatch(router.IngestBatchHeader{ArrivedNs: 5000, Count: len(ops)}, ops)
	primResp := p.batch("batch-route-1", 5000, ops)
	p.waitSynced()

	// Promote: the router pushes the successor epoch at the standby.
	p.pushTopology(p.stbySrv.URL, 2, p.stbySrv.URL)

	var rz struct {
		Ready    bool `json:"ready"`
		Promoted bool `json:"promoted"`
	}
	if status := getJSON(t, p.stbySrv.URL+"/readyz", &rz); status != http.StatusOK || !rz.Promoted {
		t.Fatalf("promoted standby readyz: status %d %+v", status, rz)
	}

	// Replica applies are now refused with the shipper's halt code.
	applyBody := replica.EncodeApply(replica.ApplyHeader{From: "s0", Count: 0, Head: 99}, nil)
	status, raw := postBody(t, p.stbySrv.URL+replica.PathApply, "", applyBody)
	if status != http.StatusConflict || !bytes.Contains(raw, []byte("promoted")) {
		t.Fatalf("apply after promotion: status %d: %s", status, raw)
	}

	// A retry of the in-flight batch against the promoted standby replays
	// the primary's recorded bytes — and does not re-apply the admissions.
	before := digestOf(t, p.stbySrv.URL)
	status, stbyResp := postBody(t, p.stbySrv.URL+router.PathShardIngestBatch, "batch-route-1", batch)
	if status != http.StatusOK || !bytes.Equal(stbyResp, primResp) {
		t.Fatalf("replayed batch diverged (status %d)\nstandby: %s\nprimary: %s", status, stbyResp, primResp)
	}
	after := digestOf(t, p.stbySrv.URL)
	if before.Digest != after.Digest || before.Points != after.Points {
		t.Fatalf("idempotency replay mutated the window: %+v -> %+v", before, after)
	}
}

// TestReplicaEndpointGuards pins the wire-level refusals: a primary is not a
// standby, a standby only accepts its own primary's shipments, and corrupt
// bodies are typed 400s.
func TestReplicaEndpointGuards(t *testing.T) {
	p := newReplicaPair(t)

	applyBody := replica.EncodeApply(replica.ApplyHeader{From: "s0", Count: 0, Head: 0}, nil)
	if status, raw := postBody(t, p.primSrv.URL+replica.PathApply, "", applyBody); status != http.StatusConflict ||
		!bytes.Contains(raw, []byte("not_standby")) {
		t.Fatalf("apply at primary: status %d: %s", status, raw)
	}

	wrong := replica.EncodeApply(replica.ApplyHeader{From: "s9", Count: 0, Head: 0}, nil)
	if status, raw := postBody(t, p.stbySrv.URL+replica.PathApply, "", wrong); status != http.StatusConflict ||
		!bytes.Contains(raw, []byte("wrong_primary")) {
		t.Fatalf("apply from wrong primary: status %d: %s", status, raw)
	}

	if status, raw := postBody(t, p.stbySrv.URL+replica.PathApply, "", []byte("garbage")); status != http.StatusBadRequest ||
		!bytes.Contains(raw, []byte("bad_wire")) {
		t.Fatalf("garbage apply: status %d: %s", status, raw)
	}
	if status, raw := postBody(t, p.stbySrv.URL+replica.PathSnapshot, "", []byte("garbage")); status != http.StatusBadRequest ||
		!bytes.Contains(raw, []byte("bad_wire")) {
		t.Fatalf("garbage snapshot: status %d: %s", status, raw)
	}
}

// TestDedupeCapacityAndMetrics covers the configurable-idempotency-cache
// satellite: capacity bounds the cache FIFO, evictions and occupancy are
// exported, and a still-cached key replays without re-running.
func TestDedupeCapacityAndMetrics(t *testing.T) {
	ss, err := NewShard(ShardServerConfig{
		Name: "s0", R: pairR, K: pairK, Dim: pairDim, DedupeCapacity: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.Close)
	srv := httptest.NewServer(ss.Handler())
	t.Cleanup(srv.Close)
	topo := router.Topology{
		Epoch: 1, Dim: pairDim, R: pairR, K: pairK, Block: 2,
		Shards: []router.ShardInfo{{Name: "s0", URL: srv.URL}},
	}
	raw, _ := json.Marshal(&topo)
	if status, body := postBody(t, srv.URL+router.PathShardTopology, "", raw); status != http.StatusOK {
		t.Fatalf("topology push: status %d: %s", status, body)
	}

	admit := func(i uint64) []byte {
		body := router.EncodeIngestBatch(router.IngestBatchHeader{ArrivedNs: int64(i), Count: 1}, admitOp(i, i, float64(i), 0))
		status, resp := postBody(t, srv.URL+router.PathShardIngestBatch, fmt.Sprintf("cap-%d", i), body)
		if status != http.StatusOK {
			t.Fatalf("ingest %d: status %d: %s", i, status, resp)
		}
		return resp
	}
	var last []byte
	for i := uint64(1); i <= 3; i++ {
		last = admit(i)
	}
	if n := metricValue(t, srv.URL, "dod_shard_dedupe_evictions_total"); n != 1 {
		t.Fatalf("dedupe evictions = %g, want 1 (capacity 2, 3 keys)", n)
	}
	if n := metricValue(t, srv.URL, "dod_shard_dedupe_size"); n != 2 {
		t.Fatalf("dedupe size = %g, want 2", n)
	}

	// The newest key is still cached: a retry replays identical bytes and
	// counts a hit, not a re-execution.
	if resp := admit(3); !bytes.Equal(resp, last) {
		t.Fatalf("cached retry diverged: %s vs %s", resp, last)
	}
	if n := metricValue(t, srv.URL, "dod_shard_dedupe_hits_total"); n != 1 {
		t.Fatalf("dedupe hits = %g, want 1", n)
	}
}

// TestRetiredEndpointsAnswer404 pins the per-point protocol's removal: a
// shard with a topology installed serves neither /v1/shard/ingest nor
// /v1/shard/evict, and a POST to either leaves the window and the ingest
// counter exactly as they were.
func TestRetiredEndpointsAnswer404(t *testing.T) {
	p := newReplicaPair(t)
	for i := uint64(1); i <= 5; i++ {
		p.ingest(i, float64(i%3), float64(i%2))
	}
	digest, points := p.primary.Window().Digest()
	ingests := metricValue(t, p.primSrv.URL, "dod_shard_ingests_total")
	for path, body := range map[string][]byte{
		router.PathShardIngest: router.EncodeIngestBatch(router.IngestBatchHeader{ArrivedNs: 9, Count: 1}, admitOp(9, 9, 1, 1)),
		router.PathShardEvict:  []byte(`{"id":1}`),
	} {
		if status, raw := postBody(t, p.primSrv.URL+path, "retired-"+path, body); status != http.StatusNotFound {
			t.Errorf("POST %s: status %d (%s), want 404", path, status, raw)
		}
	}
	if d, n := p.primary.Window().Digest(); d != digest || n != points {
		t.Errorf("window changed: digest %x/%d points, was %x/%d", d, n, digest, points)
	}
	if got := metricValue(t, p.primSrv.URL, "dod_shard_ingests_total"); got != ingests {
		t.Errorf("dod_shard_ingests_total = %g, was %g", got, ingests)
	}
}

// TestShardImportRejectsRepeatedID posts a handoff payload that names one
// ID twice: the shard answers a duplicate-ID error and imports nothing, so
// the window's digest and resident count stay as they were.
func TestShardImportRejectsRepeatedID(t *testing.T) {
	p := newReplicaPair(t)
	for i := uint64(1); i <= 5; i++ {
		p.ingest(i, float64(i%3), float64(i%2))
	}
	digest, points := p.primary.Window().Digest()
	ghost := stream.ExportedEntry{Point: geom.Point{ID: 70, Coords: []float64{0.5, 0.5}}, Seq: 90, Arrived: time.Unix(0, 9), Count: 1}
	body := router.EncodeEntries([]stream.ExportedEntry{ghost, ghost})
	status, raw := postBody(t, p.primSrv.URL+router.PathShardImport, "import-twice", body)
	var resp router.ImportResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("import: status %d: %s: %v", status, raw, err)
	}
	if status != http.StatusOK || resp.Imported != 0 || resp.Error != (&errs.DuplicateIDError{ID: 70}).Error() {
		t.Fatalf("import of a repeated ID: status %d, %+v; want 200 with the duplicate-ID error", status, resp)
	}
	if d, n := p.primary.Window().Digest(); d != digest || n != points {
		t.Errorf("window changed: digest %x/%d points, was %x/%d", d, n, digest, points)
	}
}

// metricValue scrapes one unlabeled series from /metrics.
func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
			t.Fatalf("parsing metric line %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in exposition", name)
	return 0
}
