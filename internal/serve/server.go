// Package serve exposes the sliding-window outlier detector
// (internal/stream) as a concurrent HTTP service speaking NDJSON.
//
// Endpoints:
//
//	POST /v1/ingest — one point per line; each is admitted to the window
//	                  and answered, in order, with its verdict line.
//	POST /v1/score  — one point per line; each is scored against the
//	                  current window without being ingested.
//	GET  /healthz   — liveness plus window size.
//	GET  /statsz    — counters: points ingested/evicted, queries, errors,
//	                  per-shard occupancy, p50/p99 latency histograms.
//	GET  /metrics   — the same numbers (and the window's and index's own
//	                  instruments) in Prometheus text exposition format.
//
// With Config.EnablePprof, the net/http/pprof profiling handlers are
// mounted under /debug/pprof/.
//
// A point line is {"id": 7, "coords": [1.5, 2.0]}. Responses are NDJSON in
// request order; a malformed or rejected line yields an {"id", "error"}
// line and processing continues, so one bad point cannot poison a batch.
//
// Request bodies are processed through a fixed worker pool: scoring fans
// each batch out across workers (reads scale with the index's lock
// striping), while ingest batches run as one serialized job each (window
// mutation is ordered by sequence number anyway). The pool bounds total
// CPU concurrency no matter how many requests are in flight.
package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dod/internal/errs"
	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/retry"
	"dod/internal/router"
	"dod/internal/stream"
)

// DefaultMaxBatch bounds the number of NDJSON lines per request.
const DefaultMaxBatch = 100_000

// DefaultMaxBodyBytes bounds one request body (64 MiB); larger uploads are
// rejected with a structured 413 instead of being buffered.
const DefaultMaxBodyBytes = 64 << 20

// RemoteScorer scores points against a remote engine (e.g. a cluster run
// behind a coordinator). The server prefers it for /v1/score when set,
// guarded by a circuit breaker: repeated failures (lost workers, a downed
// coordinator) trip the breaker and the server falls back to its
// in-process window, so /v1/score keeps answering through a cluster
// outage — degraded freshness, not downtime.
type RemoteScorer interface {
	ScorePoint(ctx context.Context, pt geom.Point) (stream.Score, error)
}

// Config parameterizes a Server.
type Config struct {
	// Stream configures the sliding window (R, K, Dim, Capacity, TTL,
	// Shards).
	Stream stream.Config
	// Workers sizes the request worker pool; default GOMAXPROCS.
	Workers int
	// MaxBatch caps NDJSON lines per request; default DefaultMaxBatch.
	MaxBatch int
	// MaxInflight bounds concurrently admitted batch requests (ingest +
	// score). Requests beyond the bound wait up to QueueWait for a slot,
	// then are shed with 429 + Retry-After — a fast, explicit rejection
	// instead of an unbounded queue that turns overload into timeouts.
	// Default 2x Workers.
	MaxInflight int
	// QueueWait is how long an over-limit request may wait for admission
	// before being shed. Default 0: shed immediately, keeping rejection
	// latency near zero under overload.
	QueueWait time.Duration
	// MaxBodyBytes caps one request body; default DefaultMaxBodyBytes.
	// Oversize uploads get a structured 413.
	MaxBodyBytes int64
	// Remote, when set, is preferred for /v1/score, behind a circuit
	// breaker that falls back to the in-process window on repeated
	// failures. See RemoteScorer.
	Remote RemoteScorer
	// Breaker tunes the remote scorer's circuit breaker (zero value:
	// trip after 3 consecutive failures, probe again after 5s).
	Breaker retry.BreakerConfig
	// Obs is the metrics registry backing /metrics and /statsz; default a
	// fresh registry. Pass one to aggregate several servers, or to scrape
	// the server's instruments without HTTP.
	Obs *obs.Registry
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling endpoints reveal internals and cost
	// CPU, so they are opt-in.
	EnablePprof bool
	// now overrides the clock in tests.
	now func() time.Time
}

// Server is the HTTP serving layer. Create with New, mount via Handler,
// and Close when done.
type Server struct {
	cfg      Config
	win      *stream.Window
	mux      *http.ServeMux
	pool     *workerPool
	reg      *obs.Registry
	met      *serverMetrics
	started  time.Time
	now      func() time.Time
	stopEvic chan struct{}
	evicWG   sync.WaitGroup

	admitSem chan struct{}  // admission slots: buffered to MaxInflight
	breaker  *retry.Breaker // guards the remote scorer
	draining atomic.Bool    // /readyz answers 503 while set
}

// New builds a Server with an empty window. If the window has a TTL, a
// background evictor drains expired points even when ingest is idle.
func New(cfg Config) (*Server, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	// The window and its index register their own instruments in the same
	// registry, so one /metrics scrape covers the whole stack.
	cfg.Stream.Obs = cfg.Obs
	win, err := stream.NewWindow(cfg.Stream)
	if err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	s := &Server{
		cfg:      cfg,
		win:      win,
		mux:      http.NewServeMux(),
		pool:     newWorkerPool(cfg.Workers),
		reg:      cfg.Obs,
		met:      newServerMetrics(cfg.Obs),
		now:      cfg.now,
		started:  cfg.now(),
		stopEvic: make(chan struct{}),
		admitSem: make(chan struct{}, cfg.MaxInflight),
		breaker:  retry.NewBreaker(cfg.Breaker),
	}
	s.reg.GaugeFunc("dod_serve_uptime_seconds", "Seconds since the server started.", func() float64 {
		return s.now().Sub(s.started).Seconds()
	})
	s.reg.GaugeFunc("dod_shed_inflight", "Batch requests currently admitted.", func() float64 {
		return float64(len(s.admitSem))
	})
	s.reg.GaugeFunc("dod_serve_breaker_open", "1 while the remote-scorer circuit breaker is open.", func() float64 {
		if s.cfg.Remote != nil && s.breaker.State() == retry.BreakerOpen {
			return 1
		}
		return 0
	})
	retry.Instrument(s.reg)
	s.mux.HandleFunc("/v1/ingest", s.handleIngest)
	s.mux.HandleFunc("/v1/score", s.handleScore)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statsz", s.handleStatsz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if ttl := cfg.Stream.TTL; ttl > 0 {
		interval := ttl / 4
		if interval < 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		s.evicWG.Add(1)
		go s.evictLoop(interval)
	}
	return s, nil
}

// Window exposes the underlying sliding window (tests and embedders).
func (s *Server) Window() *stream.Window { return s.win }

// Registry exposes the metrics registry backing /metrics and /statsz.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Handler returns the HTTP handler serving all endpoints. Every response
// echoes the caller's X-Dod-Request-Id header (the router propagates its
// correlation IDs this way; direct callers may send their own).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		router.EchoRequestID(w, r)
		s.mux.ServeHTTP(w, r)
	})
}

// Close stops the worker pool and the background evictor. In-flight
// requests should be drained first (http.Server.Shutdown does this).
func (s *Server) Close() {
	close(s.stopEvic)
	s.evicWG.Wait()
	s.pool.close()
}

// SetDraining flips readiness: while draining, GET /readyz answers 503 so
// load balancers route new traffic elsewhere, while in-flight requests
// keep completing. Call before http.Server.Shutdown for a graceful drain.
func (s *Server) SetDraining(draining bool) { s.draining.Store(draining) }

// admit claims an admission slot, waiting up to QueueWait. It returns a
// release func and whether the request was admitted; a false return means
// the caller must shed the request.
func (s *Server) admit(ctx context.Context) (func(), bool) {
	select {
	case s.admitSem <- struct{}{}:
		return func() { <-s.admitSem }, true
	default:
	}
	if s.cfg.QueueWait <= 0 {
		return nil, false
	}
	t := time.NewTimer(s.cfg.QueueWait)
	defer t.Stop()
	select {
	case s.admitSem <- struct{}{}:
		return func() { <-s.admitSem }, true
	case <-t.C:
		return nil, false
	case <-ctx.Done():
		return nil, false
	}
}

// shed rejects an over-capacity request: 429, a Retry-After hint, and a
// structured body carrying the ErrOverloaded identity.
func (s *Server) shed(w http.ResponseWriter, r *http.Request, endpoint string) {
	shedCounter(s.met, endpoint).Inc()
	w.Header().Set("Retry-After", "1")
	writeErrorBody(w, r, http.StatusTooManyRequests, "overloaded", errs.ErrOverloaded.Error())
}

// writeBatchError classifies a batch read failure through the shared
// classifier (internal/httpapi): 413 "body_too_large" for an oversize body,
// 400 "batch_too_large" past the line cap, 408 when the client's send
// stalled out the request, 400 otherwise — identical across tiers.
func (s *Server) writeBatchError(w http.ResponseWriter, r *http.Request, err error) {
	httpapi.WriteBatchError(w, r, err)
}

// writeErrorBody emits the serving layer's machine-readable error shape,
// carrying the request's correlation ID when the caller sent one.
func writeErrorBody(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	httpapi.WriteError(w, r, status, code, msg)
}

// scorePoint scores one point, preferring the remote scorer while its
// breaker allows; any remote failure or an open breaker serves the local
// window instead, so scoring degrades rather than erroring.
func (s *Server) scorePoint(ctx context.Context, pt geom.Point) (stream.Score, error) {
	if s.cfg.Remote != nil {
		if s.breaker.Allow() {
			sc, err := s.cfg.Remote.ScorePoint(ctx, pt)
			if err == nil {
				s.breaker.Success()
				s.met.remoteOK.Inc()
				return sc, nil
			}
			s.breaker.Failure()
			s.met.remoteErr.Inc()
		}
		s.met.remoteFallback.Inc()
	}
	return s.win.ScorePoint(pt)
}

func (s *Server) evictLoop(interval time.Duration) {
	defer s.evicWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopEvic:
			return
		case <-t.C:
			s.win.EvictExpired(s.now())
		}
	}
}

// verdictLine answers one ingest line; the shape lives in httpapi because
// the sharded tier must emit it byte-identically.
type verdictLine = httpapi.VerdictLine

// scoreLine answers one score line.
type scoreLine = httpapi.ScoreLine

// wireScratch stages the parseable lines of one batch (points plus their
// request-line indices) so the hot loop reuses the slices across requests.
type wireScratch struct {
	pts    []geom.Point
	lineOf []int
}

var wireScratchPool = sync.Pool{New: func() any { return &wireScratch{} }}

func getWireScratch() *wireScratch {
	scr := wireScratchPool.Get().(*wireScratch)
	scr.pts = scr.pts[:0]
	scr.lineOf = scr.lineOf[:0]
	return scr
}

func (scr *wireScratch) put() {
	clear(scr.pts) // points alias pooled batch arenas; drop the references
	wireScratchPool.Put(scr)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.met.ingestReqs.Inc()
	release, ok := s.admit(r.Context())
	if !ok {
		s.shed(w, r, "ingest")
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	readStart := s.now()
	batch, err := httpapi.ReadBatchPooled(r, s.cfg.MaxBatch)
	s.observeSince(s.met.ingestStage[stageRead], readStart)
	if err != nil {
		s.writeBatchError(w, r, err)
		return
	}
	defer batch.Release()
	items := batch.Items
	out := httpapi.GetVerdicts(len(items))
	defer httpapi.PutVerdicts(out)
	procStart := s.now()
	// One pool job per batch: ingest is serialized by the window lock and
	// must preserve line order for sequence numbers, so there is nothing
	// to fan out — the pool's job is bounding concurrent batches. The
	// parseable lines go through ProcessBatch as one unit: one lock
	// acquisition and one arrival timestamp for the whole batch, with
	// per-line error slots mapped back to their request line.
	s.pool.do(func() {
		scr := getWireScratch()
		defer scr.put()
		for i, it := range items {
			if it.Err != nil {
				out[i] = verdictLine{ID: it.Pt.ID, Error: it.Err.Error()}
				s.met.lineErrors.Inc()
				continue
			}
			scr.pts = append(scr.pts, it.Pt)
			scr.lineOf = append(scr.lineOf, i)
		}
		batchStart := s.now()
		verdicts, procErrs := s.win.ProcessBatch(scr.pts, batchStart)
		// Per-line latency is amortized over the batch: one observation per
		// ingested line, each the batch's mean, so counts still tally lines.
		perLine := 0.0
		if n := len(scr.pts); n > 0 {
			if d := s.now().Sub(batchStart); d > 0 {
				perLine = d.Seconds() / float64(n)
			}
		}
		for j, i := range scr.lineOf {
			s.met.ingestLatency.Observe(perLine)
			s.met.ingestLines.Inc()
			if procErrs[j] != nil {
				out[i] = verdictLine{ID: scr.pts[j].ID, Error: procErrs[j].Error()}
				s.met.lineErrors.Inc()
				continue
			}
			v := verdicts[j]
			out[i] = verdictLine{ID: v.ID, Seq: v.Seq, Neighbors: v.Neighbors, Outlier: v.Outlier, Evicted: v.Evicted}
		}
	})
	s.observeSince(s.met.ingestStage[stageProcess], procStart)
	writeStart := s.now()
	httpapi.WriteVerdicts(w, out)
	s.observeSince(s.met.ingestStage[stageWrite], writeStart)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.met.scoreReqs.Inc()
	release, ok := s.admit(r.Context())
	if !ok {
		s.shed(w, r, "score")
		return
	}
	defer release()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	readStart := s.now()
	batch, err := httpapi.ReadBatchPooled(r, s.cfg.MaxBatch)
	s.observeSince(s.met.scoreStage[stageRead], readStart)
	if err != nil {
		s.writeBatchError(w, r, err)
		return
	}
	defer batch.Release()
	items := batch.Items
	out := httpapi.GetScores(len(items))
	defer httpapi.PutScores(out)
	procStart := s.now()
	// Scoring is read-only and lock-striped, so fan the batch out across
	// the pool in contiguous chunks; results land at their line index.
	// Purely local chunks score through the window's batch API, which reuses
	// one query scratch per chunk; a configured remote scorer keeps the
	// per-point path for its per-line breaker/fallback decisions.
	const chunk = 64
	var wg sync.WaitGroup
	for lo := 0; lo < len(items); lo += chunk {
		hi := lo + chunk
		if hi > len(items) {
			hi = len(items)
		}
		wg.Add(1)
		s.pool.submit(func() {
			defer wg.Done()
			if s.cfg.Remote == nil {
				s.scoreChunkLocal(items, out, lo, hi)
				return
			}
			for i := lo; i < hi; i++ {
				it := items[i]
				if it.Err != nil {
					out[i] = scoreLine{ID: it.Pt.ID, Error: it.Err.Error()}
					s.met.lineErrors.Inc()
					continue
				}
				start := s.now()
				sc, err := s.scorePoint(r.Context(), it.Pt)
				s.observeSince(s.met.scoreLatency, start)
				s.met.scoreLines.Inc()
				if err != nil {
					out[i] = scoreLine{ID: it.Pt.ID, Error: err.Error()}
					s.met.lineErrors.Inc()
					continue
				}
				out[i] = scoreLine{ID: sc.ID, Neighbors: sc.Neighbors, Outlier: sc.Outlier}
			}
		})
	}
	wg.Wait()
	s.observeSince(s.met.scoreStage[stageProcess], procStart)
	writeStart := s.now()
	httpapi.WriteScores(w, out)
	s.observeSince(s.met.scoreStage[stageWrite], writeStart)
}

// scoreChunkLocal scores one contiguous chunk against the local window via
// ScoreBatch — a single scratch reused across the chunk — and maps per-slot
// results back to their line indices with the same metrics accounting as the
// per-point path (one latency observation per scored line, amortized).
func (s *Server) scoreChunkLocal(items []httpapi.BatchItem, out []scoreLine, lo, hi int) {
	scr := getWireScratch()
	defer scr.put()
	for i := lo; i < hi; i++ {
		if items[i].Err != nil {
			out[i] = scoreLine{ID: items[i].Pt.ID, Error: items[i].Err.Error()}
			s.met.lineErrors.Inc()
			continue
		}
		scr.pts = append(scr.pts, items[i].Pt)
		scr.lineOf = append(scr.lineOf, i)
	}
	start := s.now()
	scores, scoreErrs := s.win.ScoreBatch(scr.pts, 1)
	perLine := 0.0
	if n := len(scr.pts); n > 0 {
		if d := s.now().Sub(start); d > 0 {
			perLine = d.Seconds() / float64(n)
		}
	}
	for j, i := range scr.lineOf {
		s.met.scoreLatency.Observe(perLine)
		s.met.scoreLines.Inc()
		if scoreErrs[j] != nil {
			out[i] = scoreLine{ID: scr.pts[j].ID, Error: scoreErrs[j].Error()}
			s.met.lineErrors.Inc()
			continue
		}
		sc := scores[j]
		out[i] = scoreLine{ID: sc.ID, Neighbors: sc.Neighbors, Outlier: sc.Outlier}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthReqs.Inc()
	st := s.win.Stats()
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.now().Sub(s.started).Seconds(),
		"window":         st.Len,
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: the process
// may be alive (healthz 200) yet not ready — draining before shutdown.
// Load balancers should route on /readyz and page on /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.met.readyReqs.Inc()
	draining := s.draining.Load()
	w.Header().Set("Content-Type", "application/json")
	if draining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
		"ready":    !draining,
		"draining": draining,
		"inflight": len(s.admitSem),
	})
}

// StatsResponse is the /statsz JSON shape.
type StatsResponse struct {
	UptimeSeconds  float64        `json:"uptime_seconds"`
	IngestRequests int64          `json:"ingest_requests"`
	ScoreRequests  int64          `json:"score_requests"`
	PointsIngested uint64         `json:"points_ingested"`
	PointsEvicted  uint64         `json:"points_evicted"`
	Queries        int64          `json:"queries"`
	LineErrors     int64          `json:"line_errors"`
	WindowLen      int            `json:"window_len"`
	WindowSeq      uint64         `json:"window_seq"`
	Outliers       int            `json:"outliers"`
	FlipIn         uint64         `json:"flips_outlier_to_inlier"`
	FlipOut        uint64         `json:"flips_inlier_to_outlier"`
	ShardOccupancy []int          `json:"shard_occupancy"`
	IngestLatency  LatencySummary `json:"ingest_latency"`
	ScoreLatency   LatencySummary `json:"score_latency"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	s.met.statszReqs.Inc()
	st := s.win.Stats()
	writeJSON(w, StatsResponse{
		UptimeSeconds:  s.now().Sub(s.started).Seconds(),
		IngestRequests: s.met.ingestReqs.Value(),
		ScoreRequests:  s.met.scoreReqs.Value(),
		PointsIngested: st.Ingested,
		PointsEvicted:  st.Evicted,
		Queries:        s.met.scoreLines.Value(),
		LineErrors:     s.met.lineErrors.Value(),
		WindowLen:      st.Len,
		WindowSeq:      st.Seq,
		Outliers:       st.Outliers,
		FlipIn:         st.FlipIn,
		FlipOut:        st.FlipOut,
		ShardOccupancy: st.Occupancy,
		IngestLatency:  summarize(s.met.ingestLatency),
		ScoreLatency:   summarize(s.met.scoreLatency),
	})
}

// handleMetrics renders the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsReqs.Inc()
	w.Header().Set("Content-Type", obs.TextContentType)
	s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// workerPool is a fixed set of goroutines draining a job queue. It bounds
// the service's compute concurrency: HTTP handler goroutines enqueue work
// and wait, so a flood of requests queues instead of spawning unbounded
// parallel scans.
type workerPool struct {
	jobs chan func()
	wg   sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{jobs: make(chan func())}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// submit enqueues fn and returns immediately; fn runs on some worker.
func (p *workerPool) submit(fn func()) { p.jobs <- fn }

// do enqueues fn and blocks until it has run.
func (p *workerPool) do(fn func()) {
	done := make(chan struct{})
	p.jobs <- func() {
		defer close(done)
		fn()
	}
	<-done
}

// close drains the pool; submit/do must not be called afterwards.
func (p *workerPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
