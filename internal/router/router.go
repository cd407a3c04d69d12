package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"dod/internal/detect"
	"dod/internal/errs"
	"dod/internal/httpapi"
	"dod/internal/obs"
	"dod/internal/retry"
	"dod/internal/stream"
)

// HeaderRequestID and HeaderTenant are the front end's correlation and
// tenant headers (internal/httpapi).
const (
	HeaderRequestID = httpapi.HeaderRequestID
	HeaderTenant    = httpapi.HeaderTenant
)

// Config parameterizes a Router.
type Config struct {
	// R, K, Dim are the detection parameters, identical on every shard.
	R   float64
	K   int
	Dim int
	// Capacity bounds the GLOBAL window point count across all shards;
	// ingesting past it evicts the globally oldest point first. Zero means
	// no count bound (then TTL is required).
	Capacity int
	// TTL bounds global point age. Zero means no time bound.
	TTL time.Duration
	// Shards is the initial shard membership.
	Shards []ShardInfo
	// Block and Vnodes tune the ownership ring (0 = defaults).
	Block  int
	Vnodes int
	// FrontConfig sets the front end's request caps, admission (in-flight
	// bound, per-tenant bucket and quota) and pprof.
	httpapi.FrontConfig
	// ProbeInterval is the shard health-probe period; default 1s.
	ProbeInterval time.Duration
	// Obs is the metrics registry; default a fresh one.
	Obs *obs.Registry
	// Transport is the HTTP transport for shard calls — the fault
	// injection seam. Nil uses httpapi.NewTransport, tuned for persistent
	// router→shard connection reuse.
	Transport http.RoundTripper
	// Retry shapes shard-call backoff; zero value takes defaults.
	Retry retry.Policy
	// RetryAttempts bounds shard-call attempts; default 8.
	RetryAttempts int
	// PromoteLagBound is the largest number of unreplicated ops a standby
	// may be missing — measured against the primary's last probed log
	// head — and still be promoted. 0 demands a fully caught-up standby.
	// A promotion refused for lag leaves the shard degraded and counts the
	// gap in dod_replica_lost_total.
	PromoteLagBound uint64
	// now overrides the clock in tests.
	now func() time.Time
	// downAfter is how many consecutive failed calls and probes take a
	// shard down; default 3. Tests set it.
	downAfter int
}

// resident is the router's per-point window metadata: enough to know WHERE
// a point lives (its cell decides the owning shard under any topology) and
// WHEN it arrived (drives TTL eviction). The router holds no coordinates
// and no neighbor state — those live on the shards; this map plus the FIFO
// is what "stateless router" means here: O(window) bookkeeping, O(0) data.
type resident struct {
	cell      []int64
	arrivedNs int64
}

// Router is the NDJSON front end (internal/httpapi) over N dodserve shards:
// one logical detection service with the same API and byte-identical
// verdict streams as a single-process server on the same input. As the
// front's backend it owns the global window discipline — sequence numbers,
// capacity/TTL eviction order, duplicate IDs — and delegates all point
// storage and neighbor counting to the shards through the wire protocol.
// It mounts /v1/drain, /v1/promote, /v1/topology and /v1/snapshot next to
// the front's endpoints.
type Router struct {
	*httpapi.Front
	cfg    Config
	met    *routerMetrics
	trace  *obs.Trace
	client *http.Client
	l2     int
	// cellsPer is a neighbourhood's cell count, capped; it sizes Score's
	// cell arenas, which grow past it if they must.
	cellsPer int

	topoMu sync.RWMutex
	topo   *Topology

	// failures counts each shard's consecutive failed calls and probes; a
	// shard is down from cfg.downAfter on, until a call or probe succeeds
	// or it is promoted. Score skips a down shard and the probe loop
	// promotes its standby. replicaHeads is the last log head each primary
	// reported on /healthz — the promotion-time yardstick for how far a
	// standby may lag. healthMu guards both; promoteMu serializes whole
	// promotion transactions.
	healthMu     sync.Mutex
	failures     map[string]int
	replicaHeads map[string]uint64
	promoteMu    sync.Mutex
	promoting    map[string]bool

	// mu serializes all window mutation (ingest batches, evictions,
	// drains), exactly as the single-process window mutex does — the global
	// order of mutations IS the contract that keeps the sharded verdict
	// stream byte-identical.
	mu        sync.Mutex
	residents map[uint64]resident
	fifo      []uint64
	head      int
	seq       uint64
	seg       segScratch // the segment staging scratch (coalesce.go)

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	probeOnce sync.Once
}

// New builds a Router over the given shard membership. Call Start to push
// the initial topology and begin health probing.
func New(cfg Config) (*Router, error) {
	topo := &Topology{
		Epoch: 1, Dim: cfg.Dim, R: cfg.R, K: cfg.K,
		Block: cfg.Block, Vnodes: cfg.Vnodes, Shards: append([]ShardInfo(nil), cfg.Shards...),
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Capacity < 0 || cfg.TTL < 0 {
		return nil, errs.BadParams("router capacity and ttl must be >= 0")
	}
	if cfg.Capacity == 0 && cfg.TTL == 0 {
		return nil, errs.BadParams("window needs a capacity or a ttl (or both)")
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 8
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.downAfter <= 0 {
		cfg.downAfter = 3
	}
	transport := cfg.Transport
	if transport == nil {
		transport = httpapi.NewTransport()
	}
	rt := &Router{
		cfg:          cfg,
		met:          newRouterMetrics(cfg.Obs),
		trace:        obs.NewTrace("dodroute"),
		client:       &http.Client{Transport: transport},
		l2:           detect.L2Radius(cfg.Dim),
		cellsPer:     neighborhoodCells(cfg.Dim, detect.L2Radius(cfg.Dim)),
		topo:         topo,
		failures:     make(map[string]int),
		replicaHeads: make(map[string]uint64),
		promoting:    make(map[string]bool),
		residents:    make(map[uint64]resident),
		stopProbe:    make(chan struct{}),
	}
	rt.Front = httpapi.NewFront(cfg.FrontConfig, cfg.Obs, cfg.now, rt)
	rt.SetReady(false) // until Start has pushed the topology
	cfg.Obs.GaugeFunc("dod_route_window_points", "points resident in the global window",
		func() float64 { rt.mu.Lock(); defer rt.mu.Unlock(); return float64(len(rt.residents)) })
	cfg.Obs.GaugeFunc("dod_route_topology_epoch", "current ownership epoch",
		func() float64 { return float64(rt.topology().Epoch) })
	cfg.Obs.GaugeFunc("dod_route_shards", "shards in the current topology",
		func() float64 { return float64(len(rt.topology().Shards)) })
	rt.HandleFunc("/v1/drain", rt.handleDrain)
	rt.HandleFunc("/v1/promote", rt.handlePromote)
	rt.HandleFunc("/v1/topology", rt.handleTopology)
	rt.HandleFunc("/v1/snapshot", rt.handleSnapshot)
	return rt, nil
}

func (rt *Router) topology() *Topology {
	rt.topoMu.RLock()
	defer rt.topoMu.RUnlock()
	return rt.topo
}

// shardFailed counts a failed call or probe to the named shard and
// reports whether the shard is down.
func (rt *Router) shardFailed(name string) bool {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	rt.failures[name]++
	return rt.failures[name] >= rt.cfg.downAfter
}

// shardOK records a successful call or probe: the shard is up.
func (rt *Router) shardOK(name string) {
	rt.healthMu.Lock()
	delete(rt.failures, name)
	rt.healthMu.Unlock()
}

// shardDown reports whether the named shard's last cfg.downAfter calls
// and probes all failed.
func (rt *Router) shardDown(name string) bool {
	rt.healthMu.Lock()
	defer rt.healthMu.Unlock()
	return rt.failures[name] >= rt.cfg.downAfter
}

// Start pushes the initial topology to every shard (retrying until ctx is
// done) and starts the health-probe loop. The router serves 503 on /readyz
// until the push succeeds.
func (rt *Router) Start(ctx context.Context) error {
	topo := rt.topology()
	span := rt.trace.Start("topology_push").SetAttr(obs.Int("epoch", topo.Epoch))
	if err := rt.pushTopology(ctx, topo, topo.Shards); err != nil {
		span.End()
		return err
	}
	span.End()
	rt.SetReady(true)
	rt.probeOnce.Do(func() {
		rt.probeWG.Add(1)
		go rt.probeLoop()
	})
	return nil
}

// Close stops the health-probe loop.
func (rt *Router) Close() {
	select {
	case <-rt.stopProbe:
	default:
		close(rt.stopProbe)
	}
	rt.probeWG.Wait()
}

// probeLoop probes every shard's /healthz each ProbeInterval, feeding the
// per-shard failure counts that gate read-path routing.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	t := time.NewTicker(rt.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-t.C:
			for _, s := range rt.topology().Shards {
				rt.probeShard(s)
			}
		}
	}
}

func (rt *Router) probeShard(s ShardInfo) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeInterval)
	defer cancel()
	var raw []byte
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.URL+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := rt.client.Do(req)
	if err == nil {
		raw, _ = io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
	if err != nil || resp.StatusCode/100 != 2 {
		rt.met.probeFails.Inc()
		// A down shard with a warm standby starts the failover: promotion
		// runs off the probe loop so one slow standby status call cannot
		// stall probing of the other shards.
		if rt.shardFailed(s.Name) && s.Standby != "" {
			go rt.autoPromote(s.Name)
		}
		return
	}
	rt.shardOK(s.Name)
	// A replicating primary reports its op-log head on /healthz; remember
	// it as the promotion-time yardstick for standby lag.
	var hb struct {
		Replica struct {
			Role string `json:"role"`
			Head uint64 `json:"head"`
		} `json:"replica"`
	}
	if json.Unmarshal(raw, &hb) == nil && hb.Replica.Role == "primary" {
		rt.healthMu.Lock()
		if hb.Replica.Head > rt.replicaHeads[s.Name] {
			rt.replicaHeads[s.Name] = hb.Replica.Head
		}
		rt.healthMu.Unlock()
	}
}

// autoPromote attempts a promotion of a down shard, swallowing failures (a
// refused or raced promotion leaves the shard degraded; the next failed
// probe tries again).
func (rt *Router) autoPromote(name string) {
	if !rt.Ready() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rt.Promote(ctx, name) //nolint:errcheck
}

// callURL POSTs body to base+path with bounded retries, counting each
// attempt's outcome toward the shard's health. Mutating calls are retry-safe because shards dedupe
// by reqKey; pass reqKey "" for read-only calls to skip shard-side
// deduplication.
func (rt *Router) callURL(ctx context.Context, shard, base, path, reqKey string, body []byte, out any) error {
	return rt.callURLResolved(ctx, shard, func() string { return base }, path, reqKey, body, out)
}

// callURLResolved is callURL with the target URL re-resolved per attempt.
func (rt *Router) callURLResolved(ctx context.Context, shard string, resolve func() string, path, reqKey string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < rt.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			rt.met.shardRetries.Inc()
			if err := retry.Sleep(ctx, rt.cfg.Retry.Delay(attempt, nil)); err != nil {
				return err
			}
		}
		rt.met.shardCalls.Inc()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, resolve()+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		if reqKey != "" {
			req.Header.Set(HeaderRequestID, reqKey)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			rt.shardFailed(shard)
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
		resp.Body.Close()
		if err != nil {
			rt.shardFailed(shard)
			lastErr = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			lastErr = fmt.Errorf("shard %s %s: status %d: %s", shard, path, resp.StatusCode, bytes.TrimSpace(raw))
			if resp.StatusCode/100 == 4 {
				return lastErr // malformed request: retries will not heal it
			}
			rt.shardFailed(shard)
			continue
		}
		rt.shardOK(shard)
		if out != nil {
			if err := json.Unmarshal(raw, out); err != nil {
				lastErr = fmt.Errorf("shard %s %s: bad response: %v", shard, path, err)
				continue
			}
		}
		return nil
	}
	rt.met.shardErrors.Inc()
	return lastErr
}

// callShard calls the named shard, re-resolving its URL from the LIVE
// topology on every attempt (falling back to the caller's captured view):
// ownership is pinned by the captured topology, but the address behind a
// shard name can change mid-call when a standby is promoted, and the retry
// loop must follow it — that is how a request in flight across a failover
// replays against the promoted standby, where the replicated idempotency
// cache makes the replay exactly-once.
func (rt *Router) callShard(ctx context.Context, topo *Topology, shard, path, reqKey string, body []byte, out any) error {
	resolve := func() string {
		if base := rt.topology().ShardURL(shard); base != "" {
			return base
		}
		return topo.ShardURL(shard)
	}
	if resolve() == "" {
		return fmt.Errorf("no URL for shard %q in epoch %d", shard, topo.Epoch)
	}
	return rt.callURLResolved(ctx, shard, resolve, path, reqKey, body, out)
}

// pushTopology installs topo on each given shard, retrying each until
// success or ctx is done. Pushes are idempotent (shards accept re-pushes of
// the same epoch), so a failed multi-shard push can be re-driven.
func (rt *Router) pushTopology(ctx context.Context, topo *Topology, shards []ShardInfo) error {
	raw, err := json.Marshal(topo)
	if err != nil {
		return err
	}
	for _, s := range shards {
		var resp TopologyResponse
		if err := rt.callURL(ctx, s.Name, s.URL, PathShardTopology, "", raw, &resp); err != nil {
			return fmt.Errorf("pushing topology epoch %d to %s: %w", topo.Epoch, s.Name, err)
		}
	}
	return nil
}

// ---- the front end's backend ------------------------------------------

// Ingest runs one ingest batch through the two-wave segment protocol on
// the handler goroutine. One global mutation order: the whole batch runs
// under the router mutex, exactly as the single-process window serializes
// ProcessBatch calls. The topology and arrival timestamp are resolved once
// per batch — drain also holds rt.mu, so the topology cannot change
// mid-batch, and the shared timestamp matches the single-process tier's
// one-ProcessBatch-one-instant semantics.
func (rt *Router) Ingest(ctx context.Context, reqID string, items []httpapi.BatchItem, out []httpapi.VerdictLine) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ingestLocked(ctx, rt.topology(), rt.cfg.now(), reqID, items, out)
}

// reclaimFifoLocked drops the drained FIFO prefix once it dominates the
// backing array. Callers hold rt.mu.
func (rt *Router) reclaimFifoLocked() {
	if rt.head > 64 && rt.head*2 > len(rt.fifo) {
		rt.fifo = append([]uint64(nil), rt.fifo[rt.head:]...)
		rt.head = 0
	}
}

// ---- drain / handoff ----------------------------------------------------

// DrainResponse answers POST /v1/drain. LostEntries/LostCells are only
// non-zero on a ?force=1 drain of an unreachable shard: the window entries
// (and the distinct cells they occupied) that were dropped rather than
// moved — the blast radius of the forced removal, also counted under
// dod_route_forced_loss_total.
type DrainResponse struct {
	Drained     string `json:"drained"`
	Moved       int    `json:"moved"`
	Epoch       int64  `json:"epoch"`
	LostEntries int    `json:"lost_entries,omitempty"`
	LostCells   int    `json:"lost_cells,omitempty"`
}

// handleDrain gracefully removes a shard: its window slice is exported,
// ownership is re-rung without it (minimal movement: only its blocks
// relocate), the new topology is pushed to the survivors, and the exported
// entries are replayed to their new owners with their live neighbor counts
// intact. Runs under the router mutex, so the global mutation order is
// undisturbed and no verdict can observe a half-moved window.
//
// ?force=1 proceeds even if the departing shard cannot be reached; its
// entries are then lost (a failover, not a drain — counts on survivors are
// preserved, but verdict parity with a lossless reference ends).
func (rt *Router) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("shard")
	force := r.URL.Query().Get("force") == "1"
	rt.mu.Lock()
	defer rt.mu.Unlock()
	topo := rt.topology()
	if topo.ShardURL(name) == "" {
		httpapi.WriteError(w, r, http.StatusNotFound, "unknown_shard",
			fmt.Sprintf("shard %q is not in epoch %d", name, topo.Epoch))
		return
	}
	if len(topo.Shards) == 1 {
		httpapi.WriteError(w, r, http.StatusBadRequest, "last_shard",
			"cannot drain the only shard in the topology")
		return
	}
	span := rt.trace.Start("drain").SetAttr(obs.Str("shard", name))
	defer span.End()

	// 1. Snapshot the departing shard's window slice.
	var entries []stream.ExportedEntry
	lostEntries, lostCells := 0, 0
	exportURL := topo.ShardURL(name) + PathShardExport
	raw, err := rt.getBody(r.Context(), exportURL)
	if err == nil {
		entries, err = DecodeEntries(raw)
	}
	if err != nil {
		if !force {
			httpapi.WriteError(w, r, http.StatusBadGateway, "export_failed",
				fmt.Sprintf("exporting shard %s: %v", name, err))
			return
		}
		rt.met.failovers.Inc()
		entries = nil
		// The departing shard's slice is gone. Purge its residents from the
		// router's window bookkeeping — their FIFO slots become ghosts that
		// staging skips — and report exactly what was dropped, so a
		// forced drain is an observable loss, never a silent one.
		cells := map[string]bool{}
		for id, res := range rt.residents {
			if topo.Owner(res.cell) != name {
				continue
			}
			cells[fmt.Sprint(res.cell)] = true
			delete(rt.residents, id)
			lostEntries++
		}
		lostCells = len(cells)
		rt.met.forcedLoss.Add(int64(lostEntries))
	}

	// 2. Re-ring without the departing shard and tell the survivors first,
	// so imported entries are never routed under the old view.
	next := topo.Without(name)
	if err := rt.pushTopology(r.Context(), next, next.Shards); err != nil {
		httpapi.WriteError(w, r, http.StatusBadGateway, "topology_push_failed", err.Error())
		return
	}

	// 3. Replay the snapshot to each entry's new owner, counts verbatim.
	reqID := r.Header.Get(HeaderRequestID)
	byOwner := map[string][]stream.ExportedEntry{}
	for _, e := range entries {
		o := next.Owner(next.CellOf(e.Point.Coords))
		byOwner[o] = append(byOwner[o], e)
	}
	owners := make([]string, 0, len(byOwner))
	for o := range byOwner {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	moved := 0
	for _, o := range owners {
		body := EncodeEntries(byOwner[o])
		var resp ImportResponse
		if err := rt.callShard(r.Context(), next, o, PathShardImport, reqID+"|import|"+o, body, &resp); err != nil {
			httpapi.WriteError(w, r, http.StatusBadGateway, "import_failed",
				fmt.Sprintf("importing %d entries to %s: %v", len(byOwner[o]), o, err))
			return
		}
		if resp.Error != "" {
			httpapi.WriteError(w, r, http.StatusBadGateway, "import_failed",
				fmt.Sprintf("importing to %s: %s", o, resp.Error))
			return
		}
		moved += resp.Imported
	}

	// 4. Route under the new view from here on.
	rt.topoMu.Lock()
	rt.topo = next
	rt.topoMu.Unlock()
	rt.met.drains.Inc()
	span.SetAttr(obs.Int("moved", int64(moved)), obs.Int("epoch", next.Epoch),
		obs.Int("lost_entries", int64(lostEntries)), obs.Int("lost_cells", int64(lostCells)))
	httpapi.WriteJSON(w, http.StatusOK, DrainResponse{
		Drained: name, Moved: moved, Epoch: next.Epoch,
		LostEntries: lostEntries, LostCells: lostCells,
	})
}

// getBody GETs a URL and returns its body, with bounded retries.
func (rt *Router) getBody(ctx context.Context, url string) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < rt.cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			rt.met.shardRetries.Inc()
			if err := retry.Sleep(ctx, rt.cfg.Retry.Delay(attempt, nil)); err != nil {
				return nil, err
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode/100 != 2 {
			lastErr = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
			continue
		}
		return raw, nil
	}
	return nil, lastErr
}

// ---- introspection ------------------------------------------------------

func (rt *Router) handleTopology(w http.ResponseWriter, r *http.Request) {
	httpapi.WriteJSON(w, http.StatusOK, rt.topology())
}

// handleSnapshot aggregates every shard's export into one seq-ordered view
// of the global window (debugging and the E2E harness; O(window) transfer).
func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	topo := rt.topology()
	var all []stream.ExportedEntry
	for _, s := range topo.Shards {
		raw, err := rt.getBody(r.Context(), s.URL+PathShardExport)
		if err != nil {
			httpapi.WriteError(w, r, http.StatusBadGateway, "export_failed",
				fmt.Sprintf("exporting shard %s: %v", s.Name, err))
			return
		}
		entries, err := DecodeEntries(raw)
		if err != nil {
			httpapi.WriteError(w, r, http.StatusBadGateway, "export_failed",
				fmt.Sprintf("decoding export from %s: %v", s.Name, err))
			return
		}
		all = append(all, entries...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	type snapPoint struct {
		ID        uint64 `json:"id"`
		Seq       uint64 `json:"seq"`
		Neighbors int    `json:"neighbors"`
		Outlier   bool   `json:"outlier"`
	}
	out := struct {
		Epoch  int64       `json:"epoch"`
		Window int         `json:"window_len"`
		Points []snapPoint `json:"points"`
	}{Epoch: topo.Epoch, Window: len(all), Points: make([]snapPoint, len(all))}
	for i, e := range all {
		out.Points[i] = snapPoint{ID: e.Point.ID, Seq: e.Seq, Neighbors: e.Count, Outlier: e.Outlier}
	}
	httpapi.WriteJSON(w, http.StatusOK, out)
}

// Stats adds the router's /statsz fields: the global window, the
// topology and each shard's health, and the drain and failover counters.
func (rt *Router) Stats(m map[string]any) {
	rt.mu.Lock()
	m["window_len"] = len(rt.residents)
	m["window_seq"] = rt.seq
	rt.mu.Unlock()
	topo := rt.topology()
	type shardHealth struct {
		Name        string `json:"name"`
		URL         string `json:"url"`
		Standby     string `json:"standby,omitempty"`
		Health      string `json:"breaker"` // "open" while the shard is down
		ReplicaHead uint64 `json:"replica_head,omitempty"`
	}
	shards := make([]shardHealth, len(topo.Shards))
	for i, s := range topo.Shards {
		shards[i] = shardHealth{
			Name: s.Name, URL: s.URL, Standby: s.Standby,
			Health:      "closed",
			ReplicaHead: rt.lastReplicaHead(s.Name),
		}
		if rt.shardDown(s.Name) {
			shards[i].Health = "open"
		}
	}
	m["epoch"] = topo.Epoch
	m["evictions"] = rt.met.evictions.Value()
	m["drains"] = rt.met.drains.Value()
	m["promotes"] = rt.met.promotes.Value()
	m["replica_lost"] = rt.met.replicaLost.Value()
	m["forced_loss"] = rt.met.forcedLoss.Value()
	m["shards"] = shards
}
