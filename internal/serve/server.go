// Package serve exposes the sliding-window outlier detector
// (internal/stream) as a concurrent HTTP service speaking NDJSON, and runs
// one shard of the sharded tier (shard.go).
//
// Server is the internal/httpapi front end over one in-process
// stream.Window, with no RPC behind it:
//
//	POST /v1/ingest — one point per line; each is admitted to the window
//	                  and answered, in order, with its verdict line.
//	POST /v1/score  — one point per line; each is scored against the
//	                  current window without being ingested.
//	GET  /healthz   — liveness plus window size.
//	GET  /statsz    — counters: points ingested/evicted, lines, errors,
//	                  per-shard occupancy, p50/p99 latency summaries.
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
// An ingest batch runs on its handler goroutine as one ProcessBatch call:
// window mutation is serialized and ordered by sequence number anyway.
// Scoring fans each batch out in contiguous ranges (reads scale with the
// index's lock striping). The front's in-flight bound caps how many batches
// run at once.
package serve

import (
	"context"
	"sync"
	"time"

	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/stream"
)

// Config parameterizes a Server.
type Config struct {
	// Stream configures the sliding window (R, K, Dim, Capacity, TTL,
	// Shards).
	Stream stream.Config
	// FrontConfig sets the front end's request caps, admission and pprof.
	// Its tenant limits (TenantRPS, TenantBurst, TenantQuota) are settings
	// of a router deployment, where dodroute sets them; dodserve leaves
	// them off.
	httpapi.FrontConfig
	// Obs is the metrics registry backing /metrics and /statsz; default a
	// fresh registry. Pass one to aggregate several servers, or to scrape
	// the server's instruments without HTTP.
	Obs *obs.Registry
}

// Server is the front end over one window. Create with New, mount via
// Handler, and Close when done.
type Server struct {
	*httpapi.Front
	win      *stream.Window
	stopEvic chan struct{}
	evicWG   sync.WaitGroup
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
	s := &Server{win: win, stopEvic: make(chan struct{})}
	s.Front = httpapi.NewFront(cfg.FrontConfig, cfg.Obs, time.Now, s)
	if ttl := cfg.Stream.TTL; ttl > 0 {
		s.evicWG.Add(1)
		go s.evictLoop(max(ttl/4, 100*time.Millisecond))
	}
	return s, nil
}

// Window exposes the underlying sliding window (tests and embedders).
func (s *Server) Window() *stream.Window { return s.win }

// Close stops the background evictor. In-flight requests should be
// drained first (http.Server.Shutdown does this).
func (s *Server) Close() {
	close(s.stopEvic)
	s.evicWG.Wait()
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
			s.win.EvictExpired(time.Now())
		}
	}
}

// wireScratch stages the parseable lines of one batch (points plus their
// request-line indices) so the hot loop reuses the slices across requests.
type wireScratch struct {
	pts    []geom.Point
	lineOf []int
}

var wireScratchPool = sync.Pool{New: func() any { return &wireScratch{} }}

// getWireScratch stages the parsed lines of items[lo:hi].
func getWireScratch(items []httpapi.BatchItem, lo, hi int) *wireScratch {
	scr := wireScratchPool.Get().(*wireScratch)
	scr.pts = scr.pts[:0]
	scr.lineOf = scr.lineOf[:0]
	for i := lo; i < hi; i++ {
		if items[i].Err == nil {
			scr.pts = append(scr.pts, items[i].Pt)
			scr.lineOf = append(scr.lineOf, i)
		}
	}
	return scr
}

func (scr *wireScratch) put() {
	clear(scr.pts) // points alias pooled batch arenas; drop the references
	wireScratchPool.Put(scr)
}

// Ingest admits the batch's parsed lines through one ProcessBatch call:
// one lock acquisition and one arrival timestamp for the whole batch, with
// per-line error slots mapped back to their request line.
func (s *Server) Ingest(_ context.Context, _ string, items []httpapi.BatchItem, out []httpapi.VerdictLine) {
	scr := getWireScratch(items, 0, len(items))
	defer scr.put()
	verdicts, errs := s.win.ProcessBatch(scr.pts, time.Now())
	for j, i := range scr.lineOf {
		if errs[j] != nil {
			out[i] = httpapi.VerdictLine{ID: scr.pts[j].ID, Error: errs[j].Error()}
			continue
		}
		v := verdicts[j]
		out[i] = httpapi.VerdictLine{ID: v.ID, Seq: v.Seq, Neighbors: v.Neighbors, Outlier: v.Outlier, Evicted: v.Evicted}
	}
}

// Score scores lines [lo, hi) through the window's batch API, which reuses
// one query scratch for the range.
func (s *Server) Score(_ context.Context, items []httpapi.BatchItem, lo, hi int, out []httpapi.ScoreLine) {
	scr := getWireScratch(items, lo, hi)
	defer scr.put()
	scores, errs := s.win.ScoreBatch(scr.pts, 1)
	for j, i := range scr.lineOf {
		if errs[j] != nil {
			out[i] = httpapi.ScoreLine{ID: scr.pts[j].ID, Error: errs[j].Error()}
			continue
		}
		sc := scores[j]
		out[i] = httpapi.ScoreLine{ID: sc.ID, Neighbors: sc.Neighbors, Outlier: sc.Outlier}
	}
}

// Stats adds the window's /statsz fields.
func (s *Server) Stats(m map[string]any) {
	st := s.win.Stats()
	m["points_ingested"] = st.Ingested
	m["points_evicted"] = st.Evicted
	m["window_len"] = st.Len
	m["window_seq"] = st.Seq
	m["outliers"] = st.Outliers
	m["flips_outlier_to_inlier"] = st.FlipIn
	m["flips_inlier_to_outlier"] = st.FlipOut
	m["shard_occupancy"] = st.Occupancy
}
