// Tests of the two-wave segment protocol at capacity: how many calls a
// request costs, and byte-identity where the protocol has its seams — TTL
// and capacity evictions inside one segment, a request larger than the
// window, per-line errors between evictions.
package router_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/router"
	"dod/internal/stream"
)

// countingTransport counts round trips per URL path.
type countingTransport struct {
	mu    sync.Mutex
	paths map[string]int
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	if c.paths == nil {
		c.paths = map[string]int{}
	}
	c.paths[req.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(req)
}

// take returns the counts so far, health probes aside, and starts over.
func (c *countingTransport) take() (total int, paths map[string]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	paths, c.paths = c.paths, nil
	delete(paths, "/healthz")
	for _, n := range paths {
		total += n
	}
	return total, paths
}

func pointLines(rng *rand.Rand, firstID uint64, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g]}`+"\n", firstID+uint64(i), rng.Float64()*12, rng.Float64()*12)
	}
	return sb.String()
}

// TestCoalescedCallCount pins the protocol's cost: a 50-line request on a
// full window over 3 shards — 50 evictions, 50 admissions — settles in two
// waves of at most one call per shard, with no call to the retired per-point
// endpoints and — no standby being configured — no outbound call from any
// shard at all, and still counts every eviction.
func TestCoalescedCallCount(t *testing.T) {
	const shards, capacity, lines = 3, 200, 50
	routerTx := &countingTransport{}
	shardTx := &countingTransport{}
	c := newCluster(t, clusterOpts{
		shards: shards, capacity: capacity, block: 2,
		shardTransport: func(string) http.RoundTripper { return shardTx },
		routerOpts:     func(cfg *router.Config) { cfg.Transport = routerTx },
	})
	rng := rand.New(rand.NewSource(3))
	for id := uint64(1); id <= capacity; id += lines {
		c.both("/v1/ingest", pointLines(rng, id, lines), "prefill")
	}
	evictions := c.rt.Registry().Counter("dod_route_evictions_total", "evictions commanded across shards")
	supportRPCs := c.rt.Registry().Counter("dod_support_rpc_total", "boundary support round trips issued over the wire")
	routerTx.take()
	evicted0, support0 := evictions.Value(), supportRPCs.Value()

	c.both("/v1/ingest", pointLines(rng, capacity+1, lines), "at capacity")

	calls, paths := routerTx.take()
	if calls > 2*shards {
		t.Errorf("router→shard calls = %d (%v), want <= %d", calls, paths, 2*shards)
	}
	if n := paths[router.PathShardEvict] + paths[router.PathShardIngest]; n != 0 {
		t.Errorf("%d per-point evict/ingest calls (%v), want 0", n, paths)
	}
	if paths[router.PathSupport] > shards || paths[router.PathShardIngestBatch] > shards {
		t.Errorf("more than one call per shard per wave: %v", paths)
	}
	if n, shardPaths := shardTx.take(); n != 0 {
		t.Errorf("shards made %d outbound calls since start-up (%v), want 0", n, shardPaths)
	}
	if got := evictions.Value() - evicted0; got != lines {
		t.Errorf("dod_route_evictions_total advanced by %d, want %d", got, lines)
	}
	if got := supportRPCs.Value() - support0; got != int64(paths[router.PathSupport]) {
		t.Errorf("dod_support_rpc_total advanced by %d, wave one made %d calls", got, paths[router.PathSupport])
	}
	c.checkFinalState()
}

// TestCoalescedRequestLargerThanWindow streams requests of more lines than
// the window holds — the one place a segment must end before the request
// does, because the FIFO head becomes a point of the request itself — with
// malformed, duplicate and wrong-dimension lines riding along, and answers
// the single-process reference's bytes.
func TestCoalescedRequestLargerThanWindow(t *testing.T) {
	c := newCluster(t, clusterOpts{shards: 3, capacity: 40, block: 2})
	rng := rand.New(rand.NewSource(17))
	id := c.streamBatches(rng, 0, 2, 25)
	id = c.streamBatches(rng, id, 3, 130)
	c.streamBatches(rng, id, 2, 25)
	c.checkFinalState()
}

// TestCoalescedErrorsBetweenEvictions walks the duplicate rule through a
// segment's staged view of the window: an ID is a duplicate while resident —
// even when it is the FIFO head its own line would have evicted — and free
// again on the line after the one that evicts it, all within one request.
func TestCoalescedErrorsBetweenEvictions(t *testing.T) {
	const capacity = 30
	c := newCluster(t, clusterOpts{shards: 3, capacity: capacity, block: 2})
	rng := rand.New(rand.NewSource(23))
	c.both("/v1/ingest", pointLines(rng, 1, capacity), "fill")
	line := func(id uint64) string { return pointLines(rng, id, 1) }
	body := line(1) + // duplicate: 1 is resident (and the FIFO head)
		line(31) + // evicts 1
		line(1) + // admitted again, evicts 2
		"{malformed\n" +
		`{"id":32,"coords":[1,2,3]}` + "\n" + // wrong dimension: owes no eviction
		line(2) + // admitted again, evicts 3
		line(31) + // duplicate of a line staged in this request
		line(33) + // evicts 4
		line(4) // admitted again, evicts 5
	c.both("/v1/ingest", body, "errors between evictions")
	c.both("/v1/ingest", pointLines(rng, 100, 2*capacity+5), "then a request larger than the window")
	c.checkFinalState()
}

// TestCoalescedTTLEvictions drives TTL and capacity evictions through the
// same segments under an injected clock, against an in-process Window given
// the same instants: batch C's first line owes the TTL evictions of what is
// left of A and its later lines capacity evictions of B; batch D's first
// line expires all that is left of B at once.
func TestCoalescedTTLEvictions(t *testing.T) {
	const (
		capacity = 60
		ttl      = 10 * time.Second
	)
	var clock struct {
		sync.Mutex
		now time.Time
	}
	clock.now = time.Unix(1_700_000_000, 0)
	c := newCluster(t, clusterOpts{shards: 3, capacity: capacity, block: 2, routerOpts: func(cfg *router.Config) {
		cfg.TTL = ttl
		router.SetClock(cfg, func() time.Time {
			clock.Lock()
			defer clock.Unlock()
			return clock.now
		})
	}})
	ref, err := stream.NewWindow(stream.Config{R: testR, K: testK, Dim: testDim, Capacity: capacity, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	id := uint64(1)
	ttlEvictions := 0
	for _, step := range []struct {
		after time.Duration
		lines int
	}{{0, 40}, {4 * time.Second, 40}, {7 * time.Second, 30}, {4 * time.Second, 35}} {
		clock.Lock()
		clock.now = clock.now.Add(step.after)
		now := clock.now
		clock.Unlock()
		pts := make([]geom.Point, step.lines)
		var sb strings.Builder
		for i := range pts {
			pts[i] = geom.Point{ID: id, Coords: []float64{rng.Float64() * 12, rng.Float64() * 12}}
			fmt.Fprintf(&sb, `{"id":%d,"coords":[%g,%g]}`+"\n", id, pts[i].Coords[0], pts[i].Coords[1])
			id++
		}
		want, wantErrs := ref.ProcessBatch(pts, now)
		status, raw := post(t, c.rtSrv.URL+"/v1/ingest", sb.String())
		if status != http.StatusOK {
			t.Fatalf("ingest: status %d: %s", status, raw)
		}
		sc := bufio.NewScanner(bytes.NewReader(raw))
		for i := range pts {
			if wantErrs[i] != nil {
				t.Fatal(wantErrs[i])
			}
			if !sc.Scan() {
				t.Fatalf("response has %d lines, want %d", i, len(pts))
			}
			var got httpapi.VerdictLine
			if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
				t.Fatalf("line %d: %v", i, err)
			}
			w := want[i]
			if (got != httpapi.VerdictLine{ID: w.ID, Seq: w.Seq, Neighbors: w.Neighbors, Outlier: w.Outlier, Evicted: w.Evicted}) {
				t.Fatalf("point %d: router %+v != reference %+v", w.ID, got, w)
			}
			if w.Evicted > 1 {
				ttlEvictions += w.Evicted
			}
		}
	}
	if ttlEvictions == 0 {
		t.Fatal("no line owed more than one eviction: the TTL never fired")
	}
	c.checkFinalStateAgainst(ref)
}
