package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/replica"
	"dod/internal/router"
	"dod/internal/stream"
)

// ShardServer is one cell-partitioned dodserve shard: the slice of the
// global sliding window whose grid cells this shard owns under the current
// router-pushed topology. It speaks the codec-framed shard wire protocol
// (internal/router/wire.go):
//
//	POST /v1/shard/ingest_batch
//	                         the data plane's only mutation: this shard's
//	                         ordered share of a router segment — own
//	                         admissions (global sequence numbers and foreign
//	                         neighbor counts settled by the router) and
//	                         evictions, and the ±1s other shards' owe its
//	                         residents — under one lock.
//	POST /v1/support         boundary-cell support (Lemma 3.1), read-only:
//	                         count this shard's residents that neighbor
//	                         each probe point in the given cells. The
//	                         router calls it for scoring and as a segment's
//	                         first wave, which also returns eviction
//	                         victims' coordinates.
//	GET  /v1/shard/export    the full resident slice (drain/handoff).
//	POST /v1/shard/import    adopt entries exported from a draining peer.
//	POST /v1/shard/topology  install a new ownership epoch.
//	GET  /healthz /readyz /statsz /metrics as usual.
//
// Every mutating endpoint is idempotent by X-Dod-Request-Id: a retried
// request (lost response, injected fault) replays the recorded response
// instead of re-applying its count deltas, so the router may retry blindly.
//
// Mutation ordering is the router's job: it serializes ingests, evictions
// and drains globally. Shards apply a segment concurrently and call no one —
// the only outbound call a shard ever makes is the replication hop to its
// standby.
type ShardServer struct {
	cfg ShardServerConfig
	sw  *stream.ShardWindow
	mux *http.ServeMux
	reg *obs.Registry
	met *shardMetrics

	dedupe  *dedupeCache
	started time.Time

	draining atomic.Bool

	topoMu sync.RWMutex
	topo   *router.Topology

	// Primary-side replication (nil unless cfg.Replica is set).
	replog  *replica.Log
	rec     *replica.Recorder
	shipper *replica.Shipper

	// Standby-side replication (nil unless cfg.Standby).
	stby *standbyState
}

// standbyState is a warm standby's replay cursor: how far into the
// primary's op log it has applied, whether it has caught up with the last
// shipped head, and whether a router topology push has promoted it. All
// replica applies serialize under mu, so applied-order equals log order.
type standbyState struct {
	mu       sync.Mutex
	applied  uint64
	synced   bool
	promoted bool
}

// ShardServerConfig parameterizes a ShardServer.
type ShardServerConfig struct {
	// Name is this shard's cluster-unique name; ownership is decided by
	// comparing topology owners against it.
	Name string
	// R, K, Dim mirror the stream parameters and must match the router's.
	R   float64
	K   int
	Dim int
	// IndexShards is the local index's lock-stripe count (0 = default).
	IndexShards int
	// MaxBodyBytes caps one request body; default
	// httpapi.DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Obs is the metrics registry; default a fresh one.
	Obs *obs.Registry
	// Transport is the HTTP transport for every outbound call this shard
	// makes — today only the replication hop to Replica — and the fault
	// injection seam. Nil uses httpapi.NewTransport.
	Transport http.RoundTripper
	// DedupeCapacity caps the idempotency replay cache (entries, FIFO);
	// default DefaultDedupeCapacity. Size it above the peak number of
	// in-flight request IDs a caller may retry.
	DedupeCapacity int
	// Replica, when set, is a warm standby's base URL: every window
	// mutation is appended to a sequence-numbered op log and shipped to it
	// asynchronously (internal/replica).
	Replica string
	// ReplicaInterval is the ship poll period (0 = replica default).
	ReplicaInterval time.Duration
	// Standby runs this server as a warm standby: it serves the
	// /v1/replica endpoints, refuses readiness until bootstrap + log
	// catch-up completes, and treats a router topology push as its
	// promotion to primary.
	Standby bool
}

// DefaultDedupeCapacity is the idempotency replay cache's default size.
const DefaultDedupeCapacity = 4096

// shardMetrics are the shard serving layer's instruments.
type shardMetrics struct {
	ingests       *obs.Counter
	evicts        *obs.Counter
	supportServed *obs.Counter
	dedupeHits    *obs.Counter
	dedupeEvicts  *obs.Counter
	imports       *obs.Counter
	exports       *obs.Counter
	topoPushes    *obs.Counter
	wireErrors    *obs.Counter
	opErrors      *obs.Counter
	replicaOps    *obs.Counter // standby: ops applied from the primary's log
}

// NewShard builds a shard server with an empty window slice. It serves
// 503s until the router pushes a first topology.
func NewShard(cfg ShardServerConfig) (*ShardServer, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = httpapi.DefaultMaxBodyBytes
	}
	if cfg.DedupeCapacity <= 0 {
		cfg.DedupeCapacity = DefaultDedupeCapacity
	}
	if cfg.Standby && cfg.Replica != "" {
		return nil, fmt.Errorf("shard %s: a standby cannot itself replicate (chained replication is unsupported)", cfg.Name)
	}
	sw, err := stream.NewShardWindow(stream.ShardConfig{
		R: cfg.R, K: cfg.K, Dim: cfg.Dim, Shards: cfg.IndexShards, Obs: cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	s := &ShardServer{
		cfg:     cfg,
		sw:      sw,
		mux:     http.NewServeMux(),
		reg:     cfg.Obs,
		started: time.Now(),
	}
	s.dedupe = newDedupeCache(cfg.DedupeCapacity)
	s.met = &shardMetrics{
		ingests:       s.reg.Counter("dod_shard_ingests_total", "points admitted to this shard slice"),
		evicts:        s.reg.Counter("dod_shard_evicts_total", "router-commanded evictions applied"),
		supportServed: s.reg.Counter("dod_shard_support_total", "boundary support calls", obs.L("dir", "served")),
		dedupeHits:    s.reg.Counter("dod_shard_dedupe_hits_total", "mutating requests answered from the idempotency cache"),
		dedupeEvicts:  s.reg.Counter("dod_shard_dedupe_evictions_total", "idempotency cache entries aged out FIFO"),
		imports:       s.reg.Counter("dod_shard_imports_total", "entries adopted during drain/handoff"),
		exports:       s.reg.Counter("dod_shard_exports_total", "entries exported during drain/handoff"),
		topoPushes:    s.reg.Counter("dod_shard_topology_pushes_total", "topology epochs installed"),
		wireErrors:    s.reg.Counter("dod_shard_wire_errors_total", "malformed or corrupt wire bodies rejected"),
		opErrors:      s.reg.Counter("dod_shard_op_errors_total", "segment evict/support ops this shard's window refused"),
		replicaOps:    s.reg.Counter("dod_replica_ops_total", "replication log ops", obs.L("dir", "applied")),
	}
	s.dedupe.evictions = s.met.dedupeEvicts
	s.reg.GaugeFunc("dod_shard_dedupe_size", "idempotency cache entries currently held",
		func() float64 { return float64(s.dedupe.size()) })
	s.reg.GaugeFunc("dod_shard_topology_epoch", "currently installed ownership epoch",
		func() float64 {
			s.topoMu.RLock()
			defer s.topoMu.RUnlock()
			if s.topo == nil {
				return -1
			}
			return float64(s.topo.Epoch)
		})
	s.mux.HandleFunc(router.PathShardIngestBatch, s.handleShardIngestBatch)
	s.mux.HandleFunc(router.PathSupport, s.handleSupport)
	s.mux.HandleFunc(router.PathShardExport, s.handleShardExport)
	s.mux.HandleFunc(router.PathShardImport, s.handleShardImport)
	s.mux.HandleFunc(router.PathShardTopology, s.handleShardTopology)
	s.mux.HandleFunc(replica.PathApply, s.handleReplicaApply)
	s.mux.HandleFunc(replica.PathSnapshot, s.handleReplicaSnapshot)
	s.mux.HandleFunc(replica.PathStatus, s.handleReplicaStatus)
	s.mux.HandleFunc(replica.PathDigest, s.handleShardDigest)
	s.mux.HandleFunc("/healthz", s.handleShardHealthz)
	s.mux.HandleFunc("/readyz", s.handleShardReadyz)
	s.mux.HandleFunc("/statsz", s.handleShardStatsz)
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.TextContentType)
		s.reg.WritePrometheus(w)
	})
	if cfg.Standby {
		s.stby = &standbyState{}
	}
	if cfg.Replica != "" {
		s.replog = replica.NewLog(cfg.Obs)
		s.rec = replica.NewRecorder(s.replog, cfg.Obs)
		s.sw.SetRecorder(s.rec)
		transport := cfg.Transport
		if transport == nil {
			transport = httpapi.NewTransport()
		}
		shipper, err := replica.NewShipper(replica.ShipperConfig{
			From:     cfg.Name,
			Standby:  cfg.Replica,
			Log:      s.replog,
			Client:   &http.Client{Transport: transport},
			Interval: cfg.ReplicaInterval,
			Snapshot: s.replicaSnapshot,
			Obs:      cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		s.shipper = shipper
		s.shipper.Start()
	}
	return s, nil
}

// Close stops background work (the replication shipper, if any).
func (s *ShardServer) Close() {
	if s.shipper != nil {
		s.shipper.Close()
	}
}

// recordDedupe mirrors one first-run idempotency-cache entry into the op
// log so a promoted standby replays the same response to a retried request.
func (s *ShardServer) recordDedupe(reqID string, status int, resp []byte) {
	if s.rec == nil || reqID == "" {
		return
	}
	s.rec.RecordDedupe(reqID, status, resp)
}

// Handler returns the shard's HTTP handler (request-ID echoing included).
func (s *ShardServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpapi.EchoRequestID(w, r)
		s.mux.ServeHTTP(w, r)
	})
}

// Window exposes the underlying shard window (tests).
func (s *ShardServer) Window() *stream.ShardWindow { return s.sw }

// Registry exposes the metrics registry.
func (s *ShardServer) Registry() *obs.Registry { return s.reg }

// SetDraining flips readiness, as on Server.
func (s *ShardServer) SetDraining(d bool) { s.draining.Store(d) }

// topology returns the installed topology, or nil before the first push.
func (s *ShardServer) topology() *router.Topology {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.topo
}

// owns builds the ownership predicate for one captured topology.
func (s *ShardServer) owns(topo *router.Topology) stream.OwnsFunc {
	return func(cell []int64) bool { return topo.Owner(cell) == s.cfg.Name }
}

// readWireBody reads a size-capped request body.
func (s *ShardServer) readWireBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	return io.ReadAll(r.Body)
}

// requireTopology answers 503 and returns nil if no topology is installed.
func (s *ShardServer) requireTopology(w http.ResponseWriter, r *http.Request) *router.Topology {
	topo := s.topology()
	if topo == nil {
		httpapi.WriteError(w, r, http.StatusServiceUnavailable, "no_topology",
			"shard has no installed topology yet")
	}
	return topo
}

func (s *ShardServer) handleShardTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	raw, err := s.readWireBody(w, r)
	if err != nil {
		httpapi.WriteBatchError(w, r, err)
		return
	}
	var topo router.Topology
	if err := json.Unmarshal(raw, &topo); err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, "bad_request", "bad topology body: "+err.Error())
		return
	}
	if err := topo.Validate(); err != nil {
		httpapi.WriteError(w, r, http.StatusBadRequest, "bad_topology", err.Error())
		return
	}
	if topo.Dim != s.cfg.Dim || topo.R != s.cfg.R || topo.K != s.cfg.K {
		httpapi.WriteError(w, r, http.StatusBadRequest, "param_mismatch",
			fmt.Sprintf("topology (r=%g k=%d dim=%d) does not match shard (r=%g k=%d dim=%d)",
				topo.R, topo.K, topo.Dim, s.cfg.R, s.cfg.K, s.cfg.Dim))
		return
	}
	s.topoMu.Lock()
	stale := s.topo != nil && topo.Epoch < s.topo.Epoch
	if !stale {
		s.topo = &topo
	}
	s.topoMu.Unlock()
	if stale {
		httpapi.WriteError(w, r, http.StatusConflict, "stale_epoch", "pushed epoch is older than installed")
		return
	}
	if s.rec != nil {
		s.rec.RecordTopology(raw)
	}
	if s.stby != nil {
		// A router only pushes topology at a standby when it is promoting
		// it: from here on this server is the shard's primary and stops
		// accepting replica applies.
		s.stby.mu.Lock()
		s.stby.promoted = true
		s.stby.mu.Unlock()
	}
	s.met.topoPushes.Inc()
	httpapi.WriteJSON(w, http.StatusOK, router.TopologyResponse{
		Epoch: topo.Epoch, Shard: s.cfg.Name, Points: s.sw.Stats().Len,
	})
}

// handleShardIngestBatch applies this shard's ordered share of a router
// segment — own admissions and evictions, and the ±1s other shards'
// admissions and evictions owe its residents — in one exchange and under
// one window lock. Foreign neighbor counts arrive settled, so nothing here
// calls a peer.
func (s *ShardServer) handleShardIngestBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	topo := s.requireTopology(w, r)
	if topo == nil {
		return
	}
	body, err := s.readWireBody(w, r)
	if err != nil {
		httpapi.WriteBatchError(w, r, err)
		return
	}
	reqID := r.Header.Get(router.HeaderRequestID)
	status, resp, ran := s.dedupe.do(reqID, s.met.dedupeHits, func() (int, []byte) {
		hdr, ops, err := router.DecodeIngestBatch(body)
		if err != nil {
			s.met.wireErrors.Inc()
			return http.StatusBadRequest, marshalJSON(router.IngestBatchResponse{Error: err.Error(), RequestID: reqID})
		}
		verdicts, opErrs := s.sw.ApplyOps(ops, time.Unix(0, hdr.ArrivedNs), s.owns(topo))
		out := router.IngestBatchResponse{RequestID: reqID, Results: make([]router.IngestResponse, 0, len(ops))}
		for i := range ops {
			switch {
			case ops[i].Kind == stream.OpAdmit && opErrs[i] != nil:
				out.Results = append(out.Results, router.IngestResponse{ID: ops[i].Point.ID, Error: opErrs[i].Error()})
			case ops[i].Kind == stream.OpAdmit:
				v := verdicts[i]
				out.Results = append(out.Results, router.IngestResponse{ID: v.ID, Seq: v.Seq, Neighbors: v.Neighbors, Outlier: v.Outlier})
				s.met.ingests.Inc()
			case opErrs[i] != nil:
				s.met.opErrors.Inc()
			case ops[i].Kind == stream.OpEvict:
				s.met.evicts.Inc()
			}
		}
		return http.StatusOK, marshalJSON(out)
	})
	if ran {
		s.recordDedupe(reqID, status, resp)
	}
	httpapi.WriteJSON(w, status, json.RawMessage(resp))
}

// handleSupport answers a read-only multi-probe support body — a segment's
// wave one, or a chunk of score lines — with one count per probe and the
// coordinates of the eviction victims the header names. It changes nothing,
// so a retry simply reads again: the call stays out of the idempotency
// cache and the op log.
func (s *ShardServer) handleSupport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := s.readWireBody(w, r)
	if err != nil {
		httpapi.WriteBatchError(w, r, err)
		return
	}
	reqID := r.Header.Get(router.HeaderRequestID)
	fail := func(status int, msg string) {
		httpapi.WriteJSON(w, status, router.SupportResponse{Error: msg, RequestID: reqID})
	}
	hdr, probes, err := router.DecodeSupportBatch(body)
	if err != nil {
		s.met.wireErrors.Inc()
		fail(http.StatusBadRequest, err.Error())
		return
	}
	out := router.SupportResponse{Counts: make([]int, len(probes)), RequestID: reqID}
	for i, pr := range probes {
		n, err := s.sw.ApplySupport(pr.Point, pr.Cells, hdr.Limit)
		if err != nil {
			fail(http.StatusOK, err.Error())
			return
		}
		out.Counts[i] = n
	}
	if len(hdr.Victims) > 0 {
		out.Victims = s.sw.CoordsOf(hdr.Victims)
		for i, c := range out.Victims {
			if c == nil {
				fail(http.StatusOK, fmt.Sprintf("shard %s does not hold %d", s.cfg.Name, hdr.Victims[i]))
				return
			}
		}
	}
	s.met.supportServed.Inc()
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *ShardServer) handleShardExport(w http.ResponseWriter, r *http.Request) {
	entries := s.sw.Export()
	s.met.exports.Add(int64(len(entries)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(router.EncodeEntries(entries)) //nolint:errcheck
}

func (s *ShardServer) handleShardImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := s.readWireBody(w, r)
	if err != nil {
		httpapi.WriteBatchError(w, r, err)
		return
	}
	reqID := r.Header.Get(router.HeaderRequestID)
	status, resp, ran := s.dedupe.do(reqID, s.met.dedupeHits, func() (int, []byte) {
		in, err := router.DecodeEntries(body)
		if err != nil {
			s.met.wireErrors.Inc()
			return http.StatusBadRequest, marshalJSON(router.ImportResponse{Error: err.Error(), RequestID: reqID})
		}
		if err := s.sw.Import(in); err != nil {
			return http.StatusOK, marshalJSON(router.ImportResponse{Error: err.Error(), RequestID: reqID})
		}
		s.met.imports.Add(int64(len(in)))
		return http.StatusOK, marshalJSON(router.ImportResponse{Imported: len(in), RequestID: reqID})
	})
	if ran {
		s.recordDedupe(reqID, status, resp)
	}
	httpapi.WriteJSON(w, status, json.RawMessage(resp))
}

func (s *ShardServer) handleShardHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.sw.Stats()
	epoch := int64(-1)
	if topo := s.topology(); topo != nil {
		epoch = topo.Epoch
	}
	out := map[string]any{
		"status": "ok",
		"shard":  s.cfg.Name,
		"window": st.Len,
		"epoch":  epoch,
	}
	if s.replog != nil {
		out["replica"] = map[string]any{
			"role":  "primary",
			"head":  s.replog.Head(),
			"acked": s.replog.Acked(),
		}
	} else if s.stby != nil {
		s.stby.mu.Lock()
		out["replica"] = map[string]any{
			"role":     "standby",
			"applied":  s.stby.applied,
			"synced":   s.stby.synced,
			"promoted": s.stby.promoted,
		}
		s.stby.mu.Unlock()
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

func (s *ShardServer) handleShardReadyz(w http.ResponseWriter, r *http.Request) {
	draining := s.draining.Load()
	ready := !draining && s.topology() != nil
	out := map[string]any{
		"draining": draining,
	}
	if s.stby != nil {
		// A standby is not ready to serve until it has bootstrapped and
		// caught up with the primary's shipped head — or been promoted, at
		// which point the ordinary topology rule takes over.
		s.stby.mu.Lock()
		synced, promoted := s.stby.synced, s.stby.promoted
		s.stby.mu.Unlock()
		if !promoted {
			ready = !draining && synced
		}
		out["standby"] = true
		out["synced"] = synced
		out["promoted"] = promoted
	}
	out["ready"] = ready
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	httpapi.WriteJSON(w, status, out)
}

func (s *ShardServer) handleShardStatsz(w http.ResponseWriter, r *http.Request) {
	st := s.sw.Stats()
	httpapi.WriteJSON(w, http.StatusOK, map[string]any{
		"shard":                   s.cfg.Name,
		"uptime_seconds":          time.Since(s.started).Seconds(),
		"window_len":              st.Len,
		"points_ingested":         st.Ingested,
		"points_evicted":          st.Evicted,
		"outliers":                st.Outliers,
		"flips_outlier_to_inlier": st.FlipIn,
		"flips_inlier_to_outlier": st.FlipOut,
		"shard_occupancy":         st.Occupancy,
	})
}

func marshalJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("serve: marshal shard response: " + err.Error())
	}
	return append(b, '\n')
}

// dedupeCache gives mutating shard endpoints exactly-once semantics per
// request ID: the first arrival of an ID runs the handler and records its
// response; concurrent or later arrivals (retries after a lost response)
// wait for and replay the recorded bytes. Entries age out FIFO.
type dedupeCache struct {
	mu        sync.Mutex
	max       int
	order     []string
	entries   map[string]*dedupeEntry
	evictions *obs.Counter
}

type dedupeEntry struct {
	done   chan struct{}
	status int
	resp   []byte
}

func newDedupeCache(max int) *dedupeCache {
	return &dedupeCache{max: max, entries: make(map[string]*dedupeEntry)}
}

// do runs fn exactly once per key, replaying the recorded response for
// duplicates. An empty key disables deduplication. ran reports whether fn
// executed here (false for replays), so callers can record first-run
// responses into a replication log without re-recording replays.
func (c *dedupeCache) do(key string, hits *obs.Counter, fn func() (int, []byte)) (status int, resp []byte, ran bool) {
	if key == "" {
		status, resp = fn()
		return status, resp, true
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		if hits != nil {
			hits.Inc()
		}
		return e.status, e.resp, false
	}
	e := &dedupeEntry{done: make(chan struct{})}
	c.insertLocked(key, e)
	c.mu.Unlock()
	e.status, e.resp = fn()
	close(e.done)
	return e.status, e.resp, true
}

// seed installs a completed entry (replicated from a primary's cache) so a
// caller retrying against a promoted standby replays the primary's recorded
// response. An already-present key is left untouched.
func (c *dedupeCache) seed(key string, status int, resp []byte) {
	if key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	e := &dedupeEntry{done: make(chan struct{}), status: status, resp: resp}
	close(e.done)
	c.insertLocked(key, e)
}

// insertLocked adds an entry and ages out FIFO overflow; callers hold mu.
func (c *dedupeCache) insertLocked(key string, e *dedupeEntry) {
	c.entries[key] = e
	c.order = append(c.order, key)
	for len(c.order) > c.max {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, old)
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
}

func (c *dedupeCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
