package httpapi

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"dod/internal/errs"
	"dod/internal/obs"
	"dod/internal/par"
	"dod/internal/retry"
)

// Backend is the window a Front serves: one in-process stream.Window, or
// the sharded tier's segment protocol over N remote windows. The front has
// answered every line that failed to parse before it calls Ingest or
// Score; both skip such lines.
type Backend interface {
	// Ingest admits the batch's points in line order and answers each line
	// in out at its index. reqID is the request's correlation ID.
	Ingest(ctx context.Context, reqID string, items []BatchItem, out []VerdictLine)
	// Score answers lines [lo, hi) in out without changing the window. The
	// front calls it concurrently on disjoint ranges of one batch, each
	// under 2*scoreTile lines.
	Score(ctx context.Context, items []BatchItem, lo, hi int, out []ScoreLine)
	// Stats adds the backend's own /statsz fields to m, window_len among
	// them (/healthz reports it as window).
	Stats(m map[string]any)
}

// FrontConfig is a Front's request admission and opt-ins.
type FrontConfig struct {
	// MaxBatch caps NDJSON lines per request; default DefaultMaxBatch.
	MaxBatch int
	// MaxBodyBytes caps one request body; default DefaultMaxBodyBytes.
	// Oversize uploads get a structured 413.
	MaxBodyBytes int64
	// MaxInflight bounds concurrently admitted batch requests (ingest +
	// score). Requests beyond the bound are shed at once with 429 +
	// Retry-After — a fast, explicit rejection instead of an unbounded
	// queue that turns overload into timeouts. Default 2x GOMAXPROCS.
	MaxInflight int
	// TenantRPS/TenantBurst shape the per-tenant token bucket; TenantRPS 0
	// disables rate limiting.
	TenantRPS   float64
	TenantBurst int
	// TenantQuota is a per-tenant lifetime ingested-line quota; 0 disables.
	TenantQuota int64
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling endpoints reveal internals and cost
	// CPU, so they are opt-in.
	EnablePprof bool
}

// Endpoint and batch-stage indices of the front's series.
const (
	epIngest = iota
	epScore
)

const (
	stageRead = iota
	stageProcess
	stageWrite
)

// scoreTile is the score fan-out's target range size in lines.
const scoreTile = 64

// Why a request was shed, the reason label of dod_shed_total.
const (
	shedInflight = iota
	shedRate
	shedQuota
)

// Front is the NDJSON front end over a Backend: POST /v1/ingest and
// /v1/score, GET /healthz /readyz /statsz /metrics, and the opt-in pprof
// handlers. Every response echoes the request's X-Dod-Request-Id, minted
// when the caller sent none. A batch request passes, in order: the method
// check, the in-flight bound, the tenant's token bucket, the body and line
// caps, and (ingest) the tenant's quota; then the backend answers it and
// the response goes out in one write.
type Front struct {
	cfg      FrontConfig
	backend  Backend
	mux      *http.ServeMux
	reg      *obs.Registry
	met      *frontMetrics
	tenants  *tenantLimiter
	inflight chan struct{} // admission slots, buffered to MaxInflight
	now      func() time.Time
	started  time.Time
	ready    atomic.Bool // cleared until the backend can serve
	draining atomic.Bool // /readyz answers 503 while set
}

// NewFront mounts the front's endpoints over b, with its series in reg and
// now as its clock (nil: time.Now). The front starts ready.
func NewFront(cfg FrontConfig, reg *obs.Registry, now func() time.Time, b Backend) *Front {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if now == nil {
		now = time.Now
	}
	f := &Front{
		cfg:      cfg,
		backend:  b,
		mux:      http.NewServeMux(),
		reg:      reg,
		met:      newFrontMetrics(reg),
		tenants:  newTenantLimiter(cfg.TenantRPS, cfg.TenantBurst, cfg.TenantQuota, now),
		inflight: make(chan struct{}, cfg.MaxInflight),
		now:      now,
		started:  now(),
	}
	f.ready.Store(true)
	reg.GaugeFunc("dod_serve_uptime_seconds", "Seconds since the server started.", func() float64 {
		return f.now().Sub(f.started).Seconds()
	})
	reg.GaugeFunc("dod_shed_inflight", "Batch requests currently admitted.", func() float64 {
		return float64(len(f.inflight))
	})
	retry.Instrument(reg)
	f.mux.HandleFunc("/v1/ingest", f.handleIngest)
	f.mux.HandleFunc("/v1/score", f.handleScore)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/statsz", f.handleStatsz)
	f.mux.HandleFunc("/metrics", f.handleMetrics)
	if cfg.EnablePprof {
		f.mux.HandleFunc("/debug/pprof/", pprof.Index)
		f.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		f.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		f.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		f.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return f
}

// ServeHTTP mints a request ID if the request has none, echoes it, and
// dispatches.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mintRequestID(r)
	EchoRequestID(w, r)
	f.mux.ServeHTTP(w, r)
}

// Handler returns the HTTP handler serving every endpoint.
func (f *Front) Handler() http.Handler { return f }

// HandleFunc mounts a backend's own endpoint next to the front's.
func (f *Front) HandleFunc(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Registry exposes the metrics registry backing /metrics.
func (f *Front) Registry() *obs.Registry { return f.reg }

// SetReady flips whether the backend can serve; /readyz answers 503 while
// it cannot.
func (f *Front) SetReady(ready bool) { f.ready.Store(ready) }

// Ready reports the last SetReady.
func (f *Front) Ready() bool { return f.ready.Load() }

// SetDraining flips readiness: while draining, GET /readyz answers 503 so
// load balancers route new traffic elsewhere, while in-flight requests
// keep completing. Call before http.Server.Shutdown for a graceful drain.
func (f *Front) SetDraining(draining bool) { f.draining.Store(draining) }

// admit checks the method, counts the request and applies admission: an
// in-flight slot, then the tenant's token bucket. On refusal it has written
// the response; on success the caller must release the slot.
func (f *Front) admit(w http.ResponseWriter, r *http.Request, ep int) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	f.met.reqs[ep].Inc()
	select {
	case f.inflight <- struct{}{}:
	default:
		f.met.shed[ep][shedInflight].Inc()
		w.Header().Set("Retry-After", "1")
		WriteError(w, r, http.StatusTooManyRequests, "overloaded", errs.ErrOverloaded.Error())
		return false
	}
	tenant := r.Header.Get(HeaderTenant)
	if ok, wait := f.tenants.allowRequest(tenant); !ok {
		f.release()
		f.met.shed[ep][shedRate].Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int((wait+time.Second-1)/time.Second)))
		WriteError(w, r, http.StatusTooManyRequests, "rate_limited",
			fmt.Sprintf("tenant %q over %g req/s", tenant, f.cfg.TenantRPS))
		return false
	}
	return true
}

func (f *Front) release() { <-f.inflight }

// read parses the capped request body; on failure it has written the
// response and returns nil.
func (f *Front) read(w http.ResponseWriter, r *http.Request, ep int) *Batch {
	r.Body = http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)
	start := f.now()
	batch, err := ReadBatchPooled(r, f.cfg.MaxBatch)
	f.observeSince(f.met.stage[ep][stageRead], start)
	if err != nil {
		WriteBatchError(w, r, err)
		return nil
	}
	return batch
}

func (f *Front) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !f.admit(w, r, epIngest) {
		return
	}
	defer f.release()
	batch := f.read(w, r, epIngest)
	if batch == nil {
		return
	}
	defer batch.Release()
	items := batch.Items
	tenant := r.Header.Get(HeaderTenant)
	if ok, remaining := f.tenants.chargeQuota(tenant, len(items)); !ok {
		f.met.shed[epIngest][shedQuota].Inc()
		WriteError(w, r, http.StatusTooManyRequests, "quota_exceeded",
			fmt.Sprintf("tenant %q has %d of its lifetime point quota left, batch needs %d",
				tenant, remaining, len(items)))
		return
	}
	out := GetVerdicts(len(items))
	defer PutVerdicts(out)
	for i, it := range items {
		if it.Err != nil {
			out[i] = VerdictLine{ID: it.Pt.ID, Error: it.Err.Error()}
		}
	}
	start := f.now()
	f.backend.Ingest(r.Context(), r.Header.Get(HeaderRequestID), items, out)
	took := f.now().Sub(start)
	f.met.stage[epIngest][stageProcess].Observe(max(took, 0).Seconds())
	f.observeLines(epIngest, items, took)
	failed := 0
	for i := range out {
		if out[i].Error != "" {
			failed++
		}
	}
	f.met.lineErrors.Add(int64(failed))
	start = f.now()
	WriteVerdicts(w, out)
	f.observeSince(f.met.stage[epIngest][stageWrite], start)
}

func (f *Front) handleScore(w http.ResponseWriter, r *http.Request) {
	if !f.admit(w, r, epScore) {
		return
	}
	defer f.release()
	batch := f.read(w, r, epScore)
	if batch == nil {
		return
	}
	defer batch.Release()
	items := batch.Items
	out := GetScores(len(items))
	defer PutScores(out)
	for i, it := range items {
		if it.Err != nil {
			out[i] = ScoreLine{ID: it.Pt.ID, Error: it.Err.Error()}
		}
	}
	start := f.now()
	// Scoring is read-only, so the batch fans out in contiguous ranges of
	// fewer than 2*scoreTile lines; results land at their line index. The
	// range size, not the batch size, bounds a router's support RPC bodies:
	// each carries every probe's full neighbourhood cell list.
	par.Do(len(items), (len(items)+scoreTile-1)/scoreTile, func(_, lo, hi int) {
		began := f.now()
		f.backend.Score(r.Context(), items, lo, hi, out)
		f.observeLines(epScore, items[lo:hi], f.now().Sub(began))
	})
	f.observeSince(f.met.stage[epScore][stageProcess], start)
	failed := 0
	for i := range out {
		if out[i].Error != "" {
			failed++
		}
	}
	f.met.lineErrors.Add(int64(failed))
	start = f.now()
	WriteScores(w, out)
	f.observeSince(f.met.stage[epScore][stageWrite], start)
}

// observeLines counts the parsed lines among items and gives each one
// latency observation: took amortized over them.
func (f *Front) observeLines(ep int, items []BatchItem, took time.Duration) {
	n := 0
	for i := range items {
		if items[i].Err == nil {
			n++
		}
	}
	if n == 0 {
		return
	}
	f.met.lines[ep].Add(int64(n))
	perLine := max(took, 0).Seconds() / float64(n)
	for range n {
		f.met.latency[ep].Observe(perLine)
	}
}

func (f *Front) observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(max(f.now().Sub(start), 0).Seconds())
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.met.healthReqs.Inc()
	stats := map[string]any{}
	f.backend.Stats(stats)
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": f.now().Sub(f.started).Seconds(),
		"window":         stats["window_len"],
	})
}

// handleReadyz is readiness, distinct from /healthz liveness: the process
// may be alive (healthz 200) yet not ready — before the backend can serve,
// or draining before shutdown. Load balancers should route on /readyz and
// page on /healthz.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	f.met.readyReqs.Inc()
	draining := f.draining.Load()
	ready := f.ready.Load() && !draining
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, map[string]any{
		"ready":    ready,
		"draining": draining,
		"inflight": len(f.inflight),
	})
}

// handleStatsz serves the front's request counters and latency summaries
// next to the backend's own fields.
func (f *Front) handleStatsz(w http.ResponseWriter, r *http.Request) {
	f.met.statszReqs.Inc()
	m := map[string]any{
		"uptime_seconds":  f.now().Sub(f.started).Seconds(),
		"ingest_requests": f.met.reqs[epIngest].Value(),
		"score_requests":  f.met.reqs[epScore].Value(),
		"lines_ingested":  f.met.lines[epIngest].Value(),
		"lines_scored":    f.met.lines[epScore].Value(),
		"line_errors":     f.met.lineErrors.Value(),
		"ingest_latency":  summarize(f.met.latency[epIngest]),
		"score_latency":   summarize(f.met.latency[epScore]),
	}
	f.backend.Stats(m)
	WriteJSON(w, http.StatusOK, m)
}

// handleMetrics renders the registry in Prometheus text exposition format.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	f.met.metricsReqs.Inc()
	w.Header().Set("Content-Type", obs.TextContentType)
	f.reg.WritePrometheus(w) //nolint:errcheck
}

// frontMetrics are the front's instruments, one set for both roles, indexed
// by endpoint (and stage, or shed reason).
type frontMetrics struct {
	reqs       [2]*obs.Counter
	lines      [2]*obs.Counter
	latency    [2]*obs.Histogram
	stage      [2][3]*obs.Histogram
	shed       [2][3]*obs.Counter // score has no quota: its slot stays nil
	lineErrors *obs.Counter

	healthReqs, readyReqs, statszReqs, metricsReqs *obs.Counter
}

func newFrontMetrics(reg *obs.Registry) *frontMetrics {
	const (
		reqHelp   = "HTTP requests received, by endpoint."
		lineHelp  = "NDJSON point lines processed, by endpoint."
		errHelp   = "NDJSON lines answered with a per-line error."
		latHelp   = "Per-line window operation latency in seconds."
		stageHelp = "Per-request batch stage duration in seconds."
		shedHelp  = "Requests rejected 429, by endpoint and reason (inflight, rate, quota)."
	)
	m := &frontMetrics{
		lineErrors:  reg.Counter("dod_serve_line_errors_total", errHelp),
		healthReqs:  reg.Counter("dod_serve_requests_total", reqHelp, obs.L("endpoint", "healthz")),
		readyReqs:   reg.Counter("dod_serve_requests_total", reqHelp, obs.L("endpoint", "readyz")),
		statszReqs:  reg.Counter("dod_serve_requests_total", reqHelp, obs.L("endpoint", "statsz")),
		metricsReqs: reg.Counter("dod_serve_requests_total", reqHelp, obs.L("endpoint", "metrics")),
	}
	for ep, name := range []string{"ingest", "score"} {
		m.reqs[ep] = reg.Counter("dod_serve_requests_total", reqHelp, obs.L("endpoint", name))
		m.lines[ep] = reg.Counter("dod_serve_lines_total", lineHelp, obs.L("endpoint", name))
		m.latency[ep] = reg.Histogram("dod_serve_latency_seconds", latHelp, nil, obs.L("op", name))
		for st, stage := range []string{"read", "process", "write"} {
			m.stage[ep][st] = reg.Histogram("dod_serve_batch_stage_seconds", stageHelp, nil,
				obs.L("endpoint", name), obs.L("stage", stage))
		}
		for why, reason := range []string{"inflight", "rate", "quota"} {
			if ep == epScore && why == shedQuota {
				continue
			}
			m.shed[ep][why] = reg.Counter("dod_shed_total", shedHelp, obs.L("endpoint", name), obs.L("reason", reason))
		}
	}
	return m
}

// latencySummary is the /statsz shape of one latency histogram.
type latencySummary struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  int64   `json:"p50_us"`
	P99Us  int64   `json:"p99_us"`
}

// summarize condenses a latency histogram (seconds) into the /statsz
// microsecond summary.
func summarize(h *obs.Histogram) latencySummary {
	count := h.Count()
	s := latencySummary{
		Count: count,
		P50Us: int64(h.Quantile(0.50) * 1e6),
		P99Us: int64(h.Quantile(0.99) * 1e6),
	}
	if count > 0 {
		s.MeanUs = h.Sum() / float64(count) * 1e6
	}
	return s
}
