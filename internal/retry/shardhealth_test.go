package retry_test

// The router's shard-health rule took over what retry's circuit breaker
// did for it: a shard whose last few calls and probes all failed is down
// ("open" on /statsz), Score stops asking it, and one success brings it
// back ("closed"). These tests keep the breaker's names and hold that rule
// through the router's exported surface.

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"dod/internal/geom"
	"dod/internal/httpapi"
	"dod/internal/router"
)

// fakeShard accepts topology pushes, answers /healthz with 503 while down
// is set, and answers one neighbour for each support probe it counts.
type fakeShard struct {
	down   atomic.Bool
	probes atomic.Int64
	srv    *httptest.Server
}

func newFakeShard(t *testing.T) *fakeShard {
	fs := &fakeShard{}
	fs.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			if fs.down.Load() {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case router.PathShardTopology:
			json.NewEncoder(w).Encode(router.TopologyResponse{}) //nolint:errcheck
		case router.PathSupport:
			body, _ := io.ReadAll(r.Body)
			_, probes, err := router.DecodeSupportBatch(body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			fs.probes.Add(int64(len(probes)))
			resp := router.SupportResponse{Counts: make([]int, len(probes))}
			for i := range resp.Counts {
				resp.Counts[i] = 1
			}
			json.NewEncoder(w).Encode(resp) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fs.srv.Close)
	return fs
}

// healthOf reads each shard's "breaker" field from the router's /statsz.
func healthOf(t *testing.T, rt *router.Router) map[string]string {
	t.Helper()
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
	out := make(map[string]string, len(st.Shards))
	for _, s := range st.Shards {
		out[s.Name] = s.Health
	}
	return out
}

func scoreItems() []httpapi.BatchItem {
	rng := rand.New(rand.NewSource(5))
	items := make([]httpapi.BatchItem, 64)
	for i := range items {
		items[i].Pt = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 40, rng.Float64() * 40}}
	}
	return items
}

// TestBreakerLifecycle takes a shard down and back up through the probe
// loop alone: failing /healthz probes turn it "open" and Score answers
// from the healthy shard without asking it; once its probes succeed it
// reads "closed" and Score asks it again.
func TestBreakerLifecycle(t *testing.T) {
	s0, s1 := newFakeShard(t), newFakeShard(t)
	shards := []router.ShardInfo{{Name: "s0", URL: s0.srv.URL}, {Name: "s1", URL: s1.srv.URL}}
	rt, err := router.New(router.Config{
		R: 1, K: 10, Dim: 2, Capacity: 100, Block: 1, Shards: shards,
		RetryAttempts: 1, ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	items := scoreItems()
	score := func() (sum int, p0, p1 int64) {
		before0, before1 := s0.probes.Load(), s1.probes.Load()
		out := make([]httpapi.ScoreLine, len(items))
		rt.Score(ctx, items, 0, len(items), out)
		for _, l := range out {
			if l.Error != "" {
				t.Fatalf("line %d: %s", l.ID, l.Error)
			}
			sum += l.Neighbors
		}
		return sum, s0.probes.Load() - before0, s1.probes.Load() - before1
	}
	waitFor := func(name, want string) {
		t.Helper()
		for {
			if got := healthOf(t, rt)[name]; got == want {
				return
			} else if ctx.Err() != nil {
				t.Fatalf("%s still reads %q, want %q", name, got, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if h := healthOf(t, rt); h["s0"] != "closed" || h["s1"] != "closed" {
		t.Fatalf("a fresh router reads %v, want both closed", h)
	}
	healthy, p0, p1 := score()
	if p0 == 0 || p1 == 0 {
		t.Fatalf("healthy Score asked s0 for %d probes and s1 for %d; the test needs both", p0, p1)
	}

	s1.down.Store(true)
	waitFor("s1", "open")
	if got := healthOf(t, rt)["s0"]; got != "closed" {
		t.Fatalf("s0 reads %q, want closed", got)
	}
	if sum, q0, q1 := score(); q1 != 0 || q0 != p0 || sum != int(p0) {
		t.Fatalf("with s1 down Score asked s0 for %d probes (want %d) and s1 for %d (want 0), summed %d (want %d)", q0, p0, q1, sum, p0)
	}

	s1.down.Store(false)
	waitFor("s1", "closed")
	if sum, _, q1 := score(); q1 != p1 || sum != healthy {
		t.Fatalf("after recovery Score asked s1 for %d probes (want %d) and summed %d (want %d)", q1, p1, sum, healthy)
	}
}

// TestBreakerStateString checks the words /statsz shows for shard health:
// "closed" for every shard of a fresh router, and "open" for a shard that
// stopped answering Score's calls, with no third state in between.
func TestBreakerStateString(t *testing.T) {
	s0, s1 := newFakeShard(t), newFakeShard(t)
	shards := []router.ShardInfo{{Name: "s0", URL: s0.srv.URL}, {Name: "s1", URL: s1.srv.URL}}
	rt, err := router.New(router.Config{R: 1, K: 10, Dim: 2, Capacity: 100, Block: 1, Shards: shards, RetryAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if h := healthOf(t, rt); len(h) != 2 || h["s0"] != "closed" || h["s1"] != "closed" {
		t.Fatalf("a fresh router reads %v, want s0 and s1 closed", h)
	}

	s1.srv.Close()
	items := scoreItems()
	out := make([]httpapi.ScoreLine, len(items))
	for i := 0; i < 10 && healthOf(t, rt)["s1"] != "open"; i++ {
		rt.Score(context.Background(), items, 0, len(items), out)
		for name, st := range healthOf(t, rt) {
			if st != "open" && st != "closed" {
				t.Fatalf("%s reads %q, want open or closed", name, st)
			}
		}
	}
	if h := healthOf(t, rt); h["s0"] != "closed" || h["s1"] != "open" {
		t.Fatalf("with s1 refusing calls /statsz reads %v, want s0 closed and s1 open", h)
	}
}
