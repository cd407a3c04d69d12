package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/index"
	"dod/internal/router"
	"dod/internal/serve"
	"dod/internal/stream"
	"dod/internal/wirejson"
)

// tierTaps is everything the bench mounts around a serving tier to see it
// from outside: a wrapper on each http.Handler and a counting RoundTripper
// under each outbound client (router.Config.Transport,
// serve.ShardServerConfig.Transport). Taps are installed at set-up and
// switched on per phase; switched off they cost one atomic load, which is
// what lets one traced run measure its own overhead.
type tierTaps struct {
	on       atomic.Bool
	rec      atomic.Pointer[spanRecorder]
	router   *handlerTap // the front door: the router, or the single server
	shards   []*handlerTap
	routerTx *transportTap
	shardTx  []*transportTap
}

func newTierTaps(shards int) *tierTaps {
	t := &tierTaps{}
	t.router = &handlerTap{name: "router", taps: t}
	if shards == 0 {
		t.router.name = "serve"
		return t
	}
	t.routerTx = &transportTap{name: "router.call", taps: t, next: httpapi.NewTransport()}
	for i := 0; i < shards; i++ {
		t.shards = append(t.shards, &handlerTap{name: "shard", taps: t})
		t.shardTx = append(t.shardTx, &transportTap{name: "shard.call", taps: t, next: httpapi.NewTransport()})
	}
	return t
}

func (t *tierTaps) all() (hs []*handlerTap, txs []*transportTap) {
	hs = append([]*handlerTap{t.router}, t.shards...)
	if t.routerTx != nil {
		txs = append([]*transportTap{t.routerTx}, t.shardTx...)
	}
	return hs, txs
}

// reset zeroes every tap's tallies (between phases).
func (t *tierTaps) reset() {
	hs, txs := t.all()
	for _, h := range hs {
		h.mu.Lock()
		h.tally = tally{}
		h.mu.Unlock()
	}
	for _, tx := range txs {
		tx.mu.Lock()
		tx.tally = tally{}
		tx.mu.Unlock()
	}
}

// tally is what a tap saw, in total and per URL path.
type tally struct {
	calls  int
	busy   time.Duration
	bytes  int64 // request body bytes (transports)
	byPath map[string]pathTally
}

type pathTally struct {
	calls int
	busy  time.Duration
}

func (t *tally) add(path string, d time.Duration, reqBytes int64) {
	t.calls++
	t.busy += d
	t.bytes += reqBytes
	if t.byPath == nil {
		t.byPath = map[string]pathTally{}
	}
	p := t.byPath[path]
	p.calls++
	p.busy += d
	t.byPath[path] = p
}

// requestID is the correlation id a request carries: the router's
// X-Dod-Request-Id, without the per-sub-operation suffix it appends.
func requestID(r *http.Request) string {
	id, _, _ := strings.Cut(r.Header.Get(router.HeaderRequestID), "|")
	return id
}

type handlerTap struct {
	name string
	taps *tierTaps
	mu   sync.Mutex
	tally
}

func (h *handlerTap) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.taps.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		h.mu.Lock()
		h.add(r.URL.Path, end.Sub(start), 0)
		h.mu.Unlock()
		if rec := h.taps.rec.Load(); rec != nil {
			// Read the id after the call: the router mints it inside.
			rec.add(h.name+" "+r.URL.Path, -1, requestID(r), start, end)
		}
	})
}

type transportTap struct {
	name string
	taps *tierTaps
	next http.RoundTripper
	mu   sync.Mutex
	tally
}

func (t *transportTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.taps.on.Load() {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	t.mu.Lock()
	t.add(req.URL.Path, end.Sub(start), max(req.ContentLength, 0))
	t.mu.Unlock()
	if rec := t.taps.rec.Load(); rec != nil {
		rec.add(t.name+" "+req.URL.Path, -1, requestID(req), start, end)
	}
	return resp, err
}

// trace is the serving tiers' traced run: direct calls into each layer at
// steady-state occupancy, the handler without a socket, a sequential pass
// over loopback with the taps on, and an open-loop phase with and without
// them.
func (s *serveRun) trace(cfg runConfig, res *result, rec *spanRecorder) {
	taps := s.tier.taps
	taps.rec.Store(rec)
	if !s.spec.sharded {
		s.traceLayers(res, rec)
	}
	s.tracePass(res)

	// Open loop twice: a quarter of the phase with the taps off, the rest
	// with them on. The difference is what the tracing costs.
	taps.on.Store(false)
	plainIn, plainSc := s.openPhase(cfg.open() / 4)
	taps.on.Store(true)
	tracedIn, tracedSc := s.openPhase(cfg.open() - cfg.open()/4)
	taps.on.Store(false)
	merge(res, plainIn.res, plainSc.res, tracedIn.res, tracedSc.res)
	for _, m := range []struct {
		prefix string
		lat    []float64
	}{{"http.ingest", tracedIn.stats.Latency}, {"http.score", tracedSc.stats.Latency}} {
		res.putMedian(m.prefix+"_p50_ms", m.lat, 1e3)
		res.putPercentile(m.prefix+"_p95_ms", m.lat, 95, 1e3)
		res.putPercentile(m.prefix+"_p99_ms", m.lat, 99, 1e3)
	}
	if base := median(plainIn.stats.Latency); base > 0 {
		res.put("trace_overhead_frac", (median(tracedIn.stats.Latency)-base)/base)
	}
	s.generatorHealth(res, tracedIn.stats, tracedSc.stats)
	s.verify(res)
}

// tracePass sends a fixed number of ingest requests, then as many score
// requests, one at a time with the taps on, so every count repeats exactly
// and every shard call falls inside exactly one front-door request.
func (s *serveRun) tracePass(res *result) {
	taps := s.tier.taps
	taps.reset()
	taps.on.Store(true)
	defer taps.on.Store(false)

	support0 := s.supportRPCs()
	var clientTime time.Duration
	for i := 0; i < s.spec.pass; i++ {
		start := time.Now()
		s.postIngest(s.a, res)
		clientTime += time.Since(start)
	}
	points := float64(s.spec.pass * s.spec.lines)
	front := snapshotTally(&taps.router.mu, &taps.router.tally)
	res.put("seq_ingest_pts_per_s", points/clientTime.Seconds())
	res.put("http.loopback_us_per_req", float64((clientTime-front.busy).Microseconds())/float64(s.spec.pass))

	if s.spec.sharded {
		tx := snapshotTally(&taps.routerTx.mu, &taps.routerTx.tally)
		res.put("router.busy_s", front.busy.Seconds())
		// One request at a time, shard calls back to back: the time inside
		// the transport is a plain sum.
		res.put("router.self_s", (front.busy - tx.busy).Seconds())
		// The router's once-a-second health probes are not the requests' calls.
		res.put("router.shard_calls_per_req", float64(tx.calls-tx.byPath["/healthz"].calls)/float64(s.spec.pass))
		res.put("router.evict_calls_per_1k", 1000*float64(tx.byPath[router.PathShardEvict].calls)/points)
		res.putProgram("router.support_rpcs_per_1k", 1000*float64(s.supportRPCs()-support0)/points)
		res.put("router.bytes_out_per_pt", float64(tx.bytes)/points)

		var busy, busiest, ingestBusy time.Duration
		var peer int
		for i, h := range taps.shards {
			t := snapshotTally(&h.mu, &h.tally)
			busy += t.busy
			busiest = max(busiest, t.busy)
			ingestBusy += t.byPath[router.PathShardIngest].busy + t.byPath[router.PathShardIngestBatch].busy
			ptx := snapshotTally(&taps.shardTx[i].mu, &taps.shardTx[i].tally)
			peer += ptx.byPath[router.PathSupport].calls
		}
		res.put("shard.busy_s", busy.Seconds())
		res.put("shard.busy_max_frac", busiest.Seconds()/busy.Seconds())
		res.put("shard.peer_support_calls", float64(peer))
		res.put("shard.ingest_ns_per_pt", float64(ingestBusy.Nanoseconds())/points)
	}
	for i := 0; i < s.spec.pass; i++ {
		s.postScore(s.b, res)
	}
}

// snapshotTally copies a tap's tallies while its owner may still be adding
// to them (the router's health probes reach the shard taps at any time).
func snapshotTally(mu *sync.Mutex, t *tally) tally {
	mu.Lock()
	defer mu.Unlock()
	out := *t
	out.byPath = make(map[string]pathTally, len(t.byPath))
	for k, v := range t.byPath {
		out.byPath[k] = v
	}
	return out
}

// supportRPCs sums the program's own support round-trip counter over the
// router's and every shard's registry.
func (s *serveRun) supportRPCs() int64 {
	var total int64
	for _, reg := range s.tier.regs {
		total += reg.Counter("dod_support_rpc_total", "boundary support round trips issued over the wire").Value()
	}
	return total
}

// Fixed operation counts of the direct-call layer measurements.
const (
	layerLines   = 100_000 // lines parsed/encoded/processed/scored
	indexChurn   = 20      // rounds of insert+remove
	indexPerTurn = 1000
)

// traceLayers calls each serving layer directly, at the occupancy the
// served window sits at, with no HTTP anywhere near.
func (s *serveRun) traceLayers(res *result, rec *spanRecorder) {
	pts := make([]geom.Point, serveCapacity+layerLines)
	for i := range pts {
		pts[i] = s.gen.ingestPoint(uint64(i))
	}
	queries := make([]geom.Point, layerLines)
	for i := range queries {
		queries[i] = s.gen.scorePoint(uint64(i))
	}
	var lines [][]byte
	for _, p := range pts[serveCapacity:] {
		lines = append(lines, bytes.TrimSuffix(appendLine(nil, p), []byte{'\n'}))
	}

	// wirejson
	var coords []float64
	parse := rec.time("wirejson.parse", -1, func() {
		for _, l := range lines {
			_, coords, _ = wirejson.ParsePoint(l, coords[:0])
		}
	})
	res.put("wirejson.parse_ns_per_line", float64(parse.Nanoseconds())/layerLines)
	var out []byte
	encode := rec.time("wirejson.encode", -1, func() {
		for i, p := range pts[serveCapacity:] {
			out = wirejson.AppendVerdict(out[:0], p.ID, uint64(i), 7, false, 1, "")
		}
	})
	res.put("wirejson.encode_ns_per_line", float64(encode.Nanoseconds())/layerLines)

	// index, at 20 000 resident
	ix, err := index.New(index.Config{Dim: 2, R: serveR})
	if err != nil {
		res.Attempted++
		res.fail(1, "index: %v", err)
		return
	}
	for _, p := range pts[:serveCapacity] {
		ix.Insert(p) //nolint:errcheck // dimension is 2 by construction
	}
	var insert, remove time.Duration
	for turn := 0; turn < indexChurn; turn++ {
		batch := pts[serveCapacity+turn*indexPerTurn:][:indexPerTurn]
		insert += rec.time("index.insert", -1, func() {
			for _, p := range batch {
				ix.Insert(p) //nolint:errcheck // as above
			}
		})
		remove += rec.time("index.remove", -1, func() {
			for _, p := range batch {
				ix.Remove(p)
			}
		})
	}
	res.put("index.insert_ns", float64(insert.Nanoseconds())/(indexChurn*indexPerTurn))
	res.put("index.remove_ns", float64(remove.Nanoseconds())/(indexChurn*indexPerTurn))
	sc := index.NewCountScratch()
	probe := rec.time("index.probe", -1, func() {
		for _, q := range queries {
			ix.NeighborCountScratch(sc, q, serveK) //nolint:errcheck // as above
		}
	})
	res.put("index.probe_ns", float64(probe.Nanoseconds())/layerLines)
	ix = nil

	// stream.Window at capacity
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	win, err := stream.NewWindow(streamConfig())
	if err != nil {
		res.Attempted++
		res.fail(1, "window: %v", err)
		return
	}
	now := time.Unix(0, 0)
	win.ProcessBatch(pts[:serveCapacity], now)
	runtime.GC()
	runtime.ReadMemStats(&m1)
	res.put("stream.state_mb", (float64(m1.HeapAlloc)-float64(m0.HeapAlloc))/(1<<20))
	st0 := win.Stats()
	process := rec.time("stream.process", -1, func() {
		for at := serveCapacity; at < len(pts); at += s.spec.lines {
			win.ProcessBatch(pts[at:at+s.spec.lines], now)
		}
	})
	st1 := win.Stats()
	res.put("stream.process_ns_per_pt", float64(process.Nanoseconds())/layerLines)
	res.put("stream.evictions", float64(st1.Evicted-st0.Evicted))
	res.put("stream.flips", float64(st1.FlipIn-st0.FlipIn+st1.FlipOut-st0.FlipOut))
	score := rec.time("stream.score", -1, func() {
		for at := 0; at < len(queries); at += s.spec.lines {
			win.ScoreBatch(queries[at:at+s.spec.lines], 1)
		}
	})
	res.put("stream.score_ns_per_pt", float64(score.Nanoseconds())/layerLines)
	runtime.KeepAlive(win)

	// The ingest handler with no socket: a second server, its window filled
	// directly, answering into a recorder.
	srv, err := serve.New(serve.Config{Stream: streamConfig()})
	if err != nil {
		res.Attempted++
		res.fail(1, "handler server: %v", err)
		return
	}
	defer srv.Close()
	srv.Window().ProcessBatch(pts[:serveCapacity], now)
	handler := srv.Handler()
	bodies := s.bodies[s.sent():][:s.spec.pass]
	handle := rec.time("serve.handler", -1, func() {
		for _, body := range bodies {
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, req)
			res.Attempted++
			if w.Code != http.StatusOK || bytes.Count(w.Body.Bytes(), []byte{'\n'}) != s.spec.lines {
				res.fail(1, "handler: status %d, %d lines", w.Code, bytes.Count(w.Body.Bytes(), []byte{'\n'}))
			}
		}
	})
	perLine := float64(handle.Nanoseconds()) / float64(s.spec.pass*s.spec.lines)
	res.put("serve.handler_ns_per_line", perLine)
	res.put("serve.self_ns_per_line", perLine-
		res.Metrics["stream.process_ns_per_pt"].Value-
		res.Metrics["wirejson.parse_ns_per_line"].Value-
		res.Metrics["wirejson.encode_ns_per_line"].Value)
}
