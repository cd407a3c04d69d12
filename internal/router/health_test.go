package router

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"dod/internal/geom"
	"dod/internal/httpapi"
)

// healthShard is a stand-in shard: its /healthz answers 503 while down is
// set, and its support endpoint counts the probes it gets and answers one
// neighbour for each.
type healthShard struct {
	down   atomic.Bool
	probes atomic.Int64
	srv    *httptest.Server
}

func newHealthShard(t *testing.T) *healthShard {
	hs := &healthShard{}
	hs.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			if hs.down.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case PathSupport:
			body, _ := io.ReadAll(r.Body)
			_, probes, err := DecodeSupportBatch(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			hs.probes.Add(int64(len(probes)))
			resp := SupportResponse{Counts: make([]int, len(probes))}
			for i := range resp.Counts {
				resp.Counts[i] = 1
			}
			json.NewEncoder(w).Encode(resp) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(hs.srv.Close)
	return hs
}

// TestProbeFailuresTakeShardDown drives a shard's health through the probe
// path alone: after n-1 failed /healthz probes the shard still reads
// "closed" on /statsz and Score still asks it; after n it reads "open" and
// Score answers from the healthy shard without calling it; one good probe
// closes it again. n is the router's default.
func TestProbeFailuresTakeShardDown(t *testing.T) {
	const n = 3
	s0, s1 := newHealthShard(t), newHealthShard(t)
	shards := []ShardInfo{{Name: "s0", URL: s0.srv.URL}, {Name: "s1", URL: s1.srv.URL}}
	rt, err := New(Config{R: 1, K: 10, Dim: 2, Capacity: 100, Block: 1, Shards: shards, RetryAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	items := make([]httpapi.BatchItem, 64)
	for i := range items {
		items[i].Pt = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 40, rng.Float64() * 40}}
	}
	// score runs Score over every item and returns the neighbours summed
	// over the lines and the probes each shard answered; no line may
	// carry an error.
	score := func() (sum int, p0, p1 int64) {
		before0, before1 := s0.probes.Load(), s1.probes.Load()
		out := make([]httpapi.ScoreLine, len(items))
		rt.Score(context.Background(), items, 0, len(items), out)
		for _, l := range out {
			if l.Error != "" {
				t.Fatalf("line %d: %s", l.ID, l.Error)
			}
			sum += l.Neighbors
		}
		return sum, s0.probes.Load() - before0, s1.probes.Load() - before1
	}
	state := func(name string) string {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
		var st struct {
			Shards []struct {
				Name   string `json:"name"`
				Health string `json:"breaker"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatalf("/statsz: %v: %s", err, rec.Body.Bytes())
		}
		for _, s := range st.Shards {
			if s.Name == name {
				return s.Health
			}
		}
		t.Fatalf("/statsz has no shard %s: %s", name, rec.Body.Bytes())
		return ""
	}

	healthy, p0, p1 := score()
	if p0 == 0 || p1 == 0 {
		t.Fatalf("healthy Score asked s0 for %d probes and s1 for %d; the test needs both", p0, p1)
	}
	if healthy != int(p0+p1) {
		t.Fatalf("healthy Score summed %d neighbours over %d probes", healthy, p0+p1)
	}

	s1.down.Store(true)
	for i := 1; i < n; i++ {
		rt.probeShard(shards[1])
	}
	if got := state("s1"); got != "closed" {
		t.Fatalf("after %d failed probes s1 reads %q, want closed", n-1, got)
	}
	if sum, _, q1 := score(); q1 != p1 || sum != healthy {
		t.Fatalf("after %d failed probes Score asked s1 for %d probes (want %d) and summed %d (want %d)", n-1, q1, p1, sum, healthy)
	}

	// The answered support call above counted as a success, so it takes n
	// fresh failures to take s1 down.
	for i := 0; i < n; i++ {
		rt.probeShard(shards[1])
	}
	if got := state("s1"); got != "open" {
		t.Fatalf("after %d failed probes s1 reads %q, want open", n, got)
	}
	if got := state("s0"); got != "closed" {
		t.Fatalf("s0 reads %q, want closed", got)
	}
	if sum, q0, q1 := score(); q1 != 0 || q0 != p0 || sum != int(p0) {
		t.Fatalf("with s1 down Score asked s0 for %d probes (want %d) and s1 for %d (want 0), summed %d (want %d)", q0, p0, q1, sum, p0)
	}

	s1.down.Store(false)
	rt.probeShard(shards[1])
	if got := state("s1"); got != "closed" {
		t.Fatalf("after a good probe s1 reads %q, want closed", got)
	}
	if sum, _, q1 := score(); q1 != p1 || sum != healthy {
		t.Fatalf("after recovery Score asked s1 for %d probes (want %d) and summed %d (want %d)", q1, p1, sum, healthy)
	}
}
