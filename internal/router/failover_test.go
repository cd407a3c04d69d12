// Failover harness: warm-standby replication and lag-bounded promotion,
// end to end through the router. The tentpole property mirrors the drain
// tests': kill a replicated primary mid-stream, promote its standby, and
// the tier's NDJSON verdict stream stays byte-identical to the clean
// single-process reference — the standby replayed the primary's op log to
// bit-identical window state, and the replicated idempotency cache makes
// requests in flight across the failover exactly-once.
package router_test

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/fault"
	"dod/internal/replica"
	"dod/internal/router"
)

// waitReplicaSynced polls a primary's replication status until its standby
// has acked every appended op — the quiesce point at which primary and
// standby hold bit-identical state.
func (c *cluster) waitReplicaSynced(name string, timeout time.Duration) {
	c.t.Helper()
	deadline := time.Now().Add(timeout)
	var last replica.StatusResponse
	for time.Now().Before(deadline) {
		resp, err := http.Get(c.srvs[name].URL + replica.PathStatus)
		if err == nil {
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if json.Unmarshal(raw, &last) == nil && last.Role == "primary" && last.Synced {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatalf("standby of %s never caught up: %+v", name, last)
}

// promote runs the manual promotion endpoint and returns (status, body).
func (c *cluster) promote(name string) (int, []byte) {
	c.t.Helper()
	resp, err := http.Post(c.rtSrv.URL+"/v1/promote?shard="+name, "", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw
}

// adoptStandby swaps the promoted standby into the cluster's shard maps so
// checkFinalState inspects it instead of the dead primary. The standby
// replayed every primary op — including verdict flips — so the swap keeps
// the global flip totals intact.
func (c *cluster) adoptStandby(name string) {
	c.t.Helper()
	c.shards[name] = c.stbys[name]
	c.srvs[name] = c.stbySrvs[name]
}

// digestOf fetches a shard process's deterministic window digest.
func digestOf(t *testing.T, base string) replica.DigestResponse {
	t.Helper()
	resp, err := http.Get(base + replica.PathDigest)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d replica.DigestResponse
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// statsz fetches the router's counters.
func (c *cluster) statsz() map[string]any {
	c.t.Helper()
	resp, err := http.Get(c.rtSrv.URL + "/statsz")
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

func statInt(t *testing.T, m map[string]any, key string) int64 {
	t.Helper()
	v, ok := m[key].(float64)
	if !ok {
		t.Fatalf("statsz %q = %v (%T), want number", key, m[key], m[key])
	}
	return int64(v)
}

// checkDigestsMatch compares primary and standby at a quiesce point: equal
// log positions and equal window digests (bit-identical verdict state).
func (c *cluster) checkDigestsMatch(name string) {
	c.t.Helper()
	dp := digestOf(c.t, c.srvs[name].URL)
	ds := digestOf(c.t, c.stbySrvs[name].URL)
	if dp.Seq != ds.Seq {
		c.t.Fatalf("digest positions differ: primary seq %d, standby seq %d", dp.Seq, ds.Seq)
	}
	if dp.Digest != ds.Digest || dp.Points != ds.Points {
		c.t.Fatalf("anti-entropy digest mismatch at seq %d:\nprimary: %s (%d points)\nstandby: %s (%d points)",
			dp.Seq, dp.Digest, dp.Points, ds.Digest, ds.Points)
	}
}

// TestFailoverMatchesSingleProcess is the tentpole E2E property: stream,
// kill the replicated primary, promote its standby, keep streaming — and
// every NDJSON response stays byte-identical to the single-process
// reference, with zero ops lost.
func TestFailoverMatchesSingleProcess(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := newCluster(t, clusterOpts{
				shards: 3, capacity: 150, block: 2,
				standbys: []string{"s1"},
				routerOpts: func(cfg *router.Config) {
					// No probes: promotion timing belongs to the test, and
					// with lastHead unprobed the lag gate falls back to the
					// standby's own catch-up claim.
					cfg.ProbeInterval = time.Hour
				},
			})
			rng := rand.New(rand.NewSource(seed))
			id := c.streamBatches(rng, 0, 6, 25)

			c.waitReplicaSynced("s1", 5*time.Second)
			c.checkDigestsMatch("s1")

			// Kill the primary's listener — the process is gone as far as
			// the tier can tell — and fail over.
			c.srvs["s1"].Close()
			if status, raw := c.promote("s1"); status != http.StatusOK {
				t.Fatalf("promote: status %d: %s", status, raw)
			}
			c.adoptStandby("s1")

			c.streamBatches(rng, id, 6, 25)
			c.checkFinalState()

			st := c.statsz()
			if got := statInt(t, st, "promotes"); got != 1 {
				t.Fatalf("promotes = %d, want 1", got)
			}
			if got := statInt(t, st, "replica_lost"); got != 0 {
				t.Fatalf("replica_lost = %d, want 0 (synced standby)", got)
			}
		})
	}
}

// TestAutoPromoteOnShardDown exercises the unattended path: the health
// probes take the dead primary down and the router promotes the standby
// on its own.
func TestAutoPromoteOnShardDown(t *testing.T) {
	c := newCluster(t, clusterOpts{
		shards: 2, capacity: 150, block: 2,
		standbys: []string{"s1"},
		routerOpts: func(cfg *router.Config) {
			cfg.ProbeInterval = 20 * time.Millisecond
			router.SetDownAfter(cfg, 2)
		},
	})
	rng := rand.New(rand.NewSource(21))
	id := c.streamBatches(rng, 0, 4, 25)
	c.waitReplicaSynced("s1", 5*time.Second)

	standbyURL := c.stbySrvs["s1"].URL
	c.srvs["s1"].Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.rt.Topology().ShardURL("s1") != standbyURL {
		if time.Now().After(deadline) {
			t.Fatalf("automatic promotion never happened; topology still %q", c.rt.Topology().ShardURL("s1"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.adoptStandby("s1")

	c.streamBatches(rng, id, 4, 25)
	c.checkFinalState()

	st := c.statsz()
	if got := statInt(t, st, "promotes"); got < 1 {
		t.Fatalf("promotes = %d, want >= 1", got)
	}
	if got := statInt(t, st, "replica_lost"); got != 0 {
		t.Fatalf("replica_lost = %d, want 0", got)
	}
}

// TestPromoteRaces drives two concurrent promotions of the same shard:
// exactly one commits, the loser is refused with a 409, and a third
// attempt after the commit finds no standby left to promote. Run under
// -race this also proves the promotion transaction's epoch handoff is
// data-race free.
func TestPromoteRaces(t *testing.T) {
	c := newCluster(t, clusterOpts{
		shards: 2, capacity: 150, block: 2,
		standbys: []string{"s1"},
		routerOpts: func(cfg *router.Config) {
			cfg.ProbeInterval = time.Hour
		},
	})
	rng := rand.New(rand.NewSource(31))
	id := c.streamBatches(rng, 0, 3, 25)
	c.waitReplicaSynced("s1", 5*time.Second)

	type result struct {
		status int
		raw    []byte
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, raw := c.promote("s1")
			results[i] = result{status, raw}
		}(i)
	}
	wg.Wait()

	wins := 0
	for _, r := range results {
		switch r.status {
		case http.StatusOK:
			wins++
		case http.StatusConflict:
			// promotion_in_progress, stale_epoch or no_standby — all are
			// correct refusals for the losing transaction.
		default:
			t.Fatalf("racing promote: status %d: %s", r.status, r.raw)
		}
	}
	if wins != 1 {
		t.Fatalf("%d promotions committed, want exactly 1: %+v", wins, results)
	}

	// The shard is already served by its (former) standby; promoting again
	// has nothing to flip to.
	if status, raw := c.promote("s1"); status != http.StatusConflict || !strings.Contains(string(raw), "no_standby") {
		t.Fatalf("re-promote: status %d: %s, want 409 no_standby", status, raw)
	}

	c.adoptStandby("s1")
	c.streamBatches(rng, id, 3, 25)
	c.checkFinalState()
}

// blackholeTransport fails every request — a replication hop that never
// delivers a single op.
type blackholeTransport struct{}

func (blackholeTransport) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, fmt.Errorf("blackhole: replication link down")
}

// TestPromotionRefusedBeyondLagBound pins the safety gate: a standby that
// never received the op log must not be promoted (lag bound 0), the
// refusal names the lag, the known-lost gap is counted, and the topology
// keeps the primary in place.
func TestPromotionRefusedBeyondLagBound(t *testing.T) {
	c := newCluster(t, clusterOpts{
		shards: 2, capacity: 150, block: 2,
		standbys: []string{"s1"},
		shardTransport: func(string) http.RoundTripper {
			return blackholeTransport{}
		},
		routerOpts: func(cfg *router.Config) {
			// Fast probes record the primary's op-log head — the yardstick
			// the lag check measures the silent standby against.
			cfg.ProbeInterval = 10 * time.Millisecond
		},
	})
	rng := rand.New(rand.NewSource(41))
	c.streamBatches(rng, 0, 3, 25)

	// Wait until a probe has seen a non-zero head for s1.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var seen bool
		for _, s := range c.statsz()["shards"].([]any) {
			sm := s.(map[string]any)
			if sm["name"] == "s1" {
				if h, ok := sm["replica_head"].(float64); ok && h > 0 {
					seen = true
				}
			}
		}
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("probe never recorded s1's op-log head")
		}
		time.Sleep(5 * time.Millisecond)
	}

	primaryURL := c.rt.Topology().ShardURL("s1")
	status, raw := c.promote("s1")
	if status != http.StatusConflict || !strings.Contains(string(raw), "standby_lag") {
		t.Fatalf("promote with lagging standby: status %d: %s, want 409 standby_lag", status, raw)
	}
	if got := statInt(t, c.statsz(), "replica_lost"); got <= 0 {
		t.Fatalf("replica_lost = %d, want > 0 (the refused gap is countable)", got)
	}
	if url := c.rt.Topology().ShardURL("s1"); url != primaryURL {
		t.Fatalf("refused promotion moved the topology: %q -> %q", primaryURL, url)
	}

	// The starved standby still refuses readiness.
	resp, err := http.Get(c.stbySrvs["s1"].URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("starved standby readyz = %d, want 503", resp.StatusCode)
	}
}

// TestForcedDrainReportsLoss covers the no-standby last resort: a forced
// drain of a dead shard proceeds, reports exactly what it dropped, counts
// it, and leaves the tier serving (the lost residents' FIFO slots become
// ghosts the eviction scan skips).
func TestForcedDrainReportsLoss(t *testing.T) {
	c := newCluster(t, clusterOpts{
		shards: 3, capacity: 120, block: 2,
		routerOpts: func(cfg *router.Config) {
			cfg.ProbeInterval = time.Hour
		},
	})
	rng := rand.New(rand.NewSource(51))
	c.streamBatches(rng, 0, 6, 25)
	c.srvs["s1"].Close()

	// A plain drain needs the shard's window and must fail.
	resp, err := http.Post(c.rtSrv.URL+"/v1/drain?shard=s1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("drain of a dead shard succeeded: %s", raw)
	}

	// force=1 proceeds and reports the blast radius.
	resp, err = http.Post(c.rtSrv.URL+"/v1/drain?shard=s1&force=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forced drain: status %d: %s", resp.StatusCode, raw)
	}
	var dr router.DrainResponse
	if err := json.Unmarshal(raw, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.LostEntries <= 0 || dr.LostCells <= 0 {
		t.Fatalf("forced drain reported no loss: %+v", dr)
	}
	if got := statInt(t, c.statsz(), "forced_loss"); got != int64(dr.LostEntries) {
		t.Fatalf("forced_loss = %d, want %d (the response's lost_entries)", got, dr.LostEntries)
	}

	// The tier still serves, and pushing well past capacity exercises the
	// ghost slots the purged residents left in the eviction FIFO. The
	// reference comparison is over: the loss is real divergence by design.
	id := uint64(10_000)
	for b := 0; b < 8; b++ {
		var sb strings.Builder
		for i := 0; i < 30; i++ {
			id++
			fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g]}`+"\n", id, rng.Float64()*12, rng.Float64()*12)
		}
		status, out := post(t, c.rtSrv.URL+"/v1/ingest", sb.String())
		if status != http.StatusOK {
			t.Fatalf("post-loss ingest batch %d: status %d: %s", b, status, out)
		}
		if strings.Contains(string(out), `"error"`) {
			t.Fatalf("post-loss ingest batch %d produced per-line errors: %s", b, out)
		}
	}
}

// dropTransport performs requests to the armed host but discards their
// responses — the far side acted, the caller never learns. Arming it
// against a replicated primary models the worst in-flight case: work
// applied, logged and replicated, with the client still retrying.
type dropTransport struct {
	inner   http.RoundTripper
	host    atomic.Value // string; "" disarmed
	dropped chan struct{}
	once    sync.Once
}

func newDropTransport() *dropTransport {
	d := &dropTransport{inner: http.DefaultTransport, dropped: make(chan struct{})}
	d.host.Store("")
	return d
}

func (d *dropTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if h, _ := d.host.Load().(string); h != "" && req.URL.Host == h {
		resp, err := d.inner.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
		d.once.Do(func() { close(d.dropped) })
		return nil, fmt.Errorf("dropTransport: response from %s discarded", req.URL.Host)
	}
	return d.inner.RoundTrip(req)
}

// TestInflightRetryAcrossPromotion is the exactly-once E2E: an ingest whose
// response is lost keeps retrying through the failover, lands on the
// promoted standby with its original idempotency key, and is answered from
// the replicated dedupe cache — byte-identical to the reference, applied
// once.
func TestInflightRetryAcrossPromotion(t *testing.T) {
	dt := newDropTransport()
	c := newCluster(t, clusterOpts{
		shards: 2, capacity: 150, block: 2,
		standbys: []string{"s1"},
		routerOpts: func(cfg *router.Config) {
			cfg.Transport = dt
			cfg.ProbeInterval = time.Hour
			// A deep retry budget: with Base 1ms the loop spends ~2s
			// retrying the dead primary — promotion happens well within it.
			cfg.RetryAttempts = 60
		},
	})
	rng := rand.New(rand.NewSource(61))
	id := c.streamBatches(rng, 0, 4, 25)
	c.waitReplicaSynced("s1", 5*time.Second)

	// A point owned by s1, so its ingest is the call that gets stuck.
	topo := c.rt.Topology()
	var coords []float64
	for x := 0.1; x < 12; x += 0.37 {
		if cand := []float64{x, 11.3}; topo.OwnerOf(cand) == "s1" {
			coords = cand
			break
		}
	}
	if coords == nil {
		t.Fatal("no probe coordinate landed on s1")
	}
	line := fmt.Sprintf(`{"id":900001,"coords":[%g,%g]}`+"\n", coords[0], coords[1])

	// Reference first: its answer is the byte-exact oracle for the retried
	// router response.
	refStatus, refRaw := post(t, c.refSrv.URL+"/v1/ingest", line)
	if refStatus != http.StatusOK {
		t.Fatalf("reference ingest: status %d: %s", refStatus, refRaw)
	}

	dt.host.Store(strings.TrimPrefix(c.srvs["s1"].URL, "http://"))
	type result struct {
		status int
		raw    []byte
	}
	resCh := make(chan result, 1)
	go func() {
		status, raw := post(t, c.rtSrv.URL+"/v1/ingest", line)
		resCh <- result{status, raw}
	}()

	// The primary has applied and logged the ingest (and its dedupe record)
	// but the response is gone. Once the standby acked everything, promote.
	<-dt.dropped
	c.waitReplicaSynced("s1", 5*time.Second)
	if status, raw := c.promote("s1"); status != http.StatusOK {
		t.Fatalf("promote: status %d: %s", status, raw)
	}
	c.adoptStandby("s1")

	got := <-resCh
	if got.status != http.StatusOK {
		t.Fatalf("in-flight ingest: status %d: %s", got.status, got.raw)
	}
	if string(got.raw) != string(refRaw) {
		t.Fatalf("in-flight ingest diverged across failover:\nrouter: %s\nreference: %s", got.raw, refRaw)
	}

	dt.host.Store("")
	c.streamBatches(rng, id+1, 4, 25)
	c.checkFinalState()
	if got := statInt(t, c.statsz(), "replica_lost"); got != 0 {
		t.Fatalf("replica_lost = %d, want 0", got)
	}
}

// replicaChaosSeeds is the fixed PR matrix for the replication-hop chaos
// runs; -fault.seed narrows it for replay, same as the route matrix.
var replicaChaosSeeds = []int64{301, 302, 303}

// TestReplicaChaosFailover injects latency, errors, dropped acks, corrupt
// responses and partition windows into the primary→standby hop — the op
// shipper must absorb all of it (re-ship, dedupe by seq, integrity-check)
// and still deliver a standby whose promotion keeps the verdict stream
// byte-identical. Corrupt IS in this mix, unlike the route matrix:
// replication bodies are codec-sealed frames, so a flipped byte is a
// protocol-level 400 the shipper retries through.
func TestReplicaChaosFailover(t *testing.T) {
	seeds := replicaChaosSeeds
	if *faultSeed > 0 {
		seeds = []int64{*faultSeed}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			in := fault.New(fault.Config{Seed: seed, Rules: []fault.Rule{{
				Site:         "*",
				PLatency:     0.10,
				MaxLatency:   2 * time.Millisecond,
				PError:       0.08,
				PDrop:        0.06,
				PCorrupt:     0.05,
				PPartition:   0.01,
				PartitionLen: 3,
			}}})
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("replay with: go test ./internal/router/ -run ReplicaChaos -fault.seed=%d", seed)
				}
			})
			c := newCluster(t, clusterOpts{
				shards: 2, capacity: 150, block: 2,
				standbys: []string{"s1"},
				shardTransport: func(name string) http.RoundTripper {
					return fault.Transport(nil, in, "replica."+name)
				},
				routerOpts: func(cfg *router.Config) {
					cfg.ProbeInterval = time.Hour
				},
			})
			rng := rand.New(rand.NewSource(seed))
			id := c.streamBatches(rng, 0, 5, 25)

			// Chaos slows shipping but must never stop it: the standby
			// still reaches byte-identical state at the quiesce point.
			c.waitReplicaSynced("s1", 10*time.Second)
			c.checkDigestsMatch("s1")

			c.srvs["s1"].Close()
			if status, raw := c.promote("s1"); status != http.StatusOK {
				t.Fatalf("promote: status %d: %s", status, raw)
			}
			c.adoptStandby("s1")

			c.streamBatches(rng, id, 5, 25)
			c.checkFinalState()

			st := c.statsz()
			if got := statInt(t, st, "promotes"); got != 1 {
				t.Fatalf("promotes = %d, want 1", got)
			}
			if got := statInt(t, st, "replica_lost"); got != 0 {
				t.Fatalf("replica_lost = %d, want 0", got)
			}
		})
	}
}
