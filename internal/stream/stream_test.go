package stream

import (
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dod/internal/core"
	"dod/internal/detect"
	"dod/internal/geom"
	"dod/internal/obs"
)

var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func randPoint(id uint64, dim int, scale float64, rng *rand.Rand) geom.Point {
	coords := make([]float64, dim)
	for j := range coords {
		coords[j] = rng.Float64() * scale
	}
	return geom.Point{ID: id, Coords: coords}
}

// referenceOutliers runs the batch brute-force detector over the points.
func referenceOutliers(points []geom.Point, r float64, k int) []uint64 {
	if len(points) == 0 {
		return nil
	}
	res := core.DetectCentralized(points, detect.BruteForce, detect.Params{R: r, K: k}, 1)
	ids := append([]uint64(nil), res.OutlierIDs...)
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func assertMatchesBatch(t *testing.T, w *Window, r float64, k int, step int) {
	t.Helper()
	snap := w.Snapshot()
	want := referenceOutliers(snap.Points, r, k)
	if !reflect.DeepEqual(snap.OutlierIDs, want) {
		t.Fatalf("step %d: window outliers %v != batch outliers %v (window size %d)",
			step, snap.OutlierIDs, want, len(snap.Points))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{R: 0, K: 3, Dim: 2, Capacity: 10},
		{R: 1, K: 0, Dim: 2, Capacity: 10},
		{R: 1, K: 3, Dim: 0, Capacity: 10},
		{R: 1, K: 3, Dim: 2},               // no bound at all
		{R: 1, K: 3, Dim: 2, Capacity: -1}, // negative capacity
		{R: 1, K: 3, Dim: 2, TTL: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewWindow(cfg); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	if _, err := NewWindow(Config{R: 1, K: 3, Dim: 2, Capacity: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	w, err := NewWindow(Config{R: 1, K: 2, Dim: 2, Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	p := geom.Point{ID: 7, Coords: []float64{1, 1}}
	if _, err := w.Process(p, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Process(p, t0); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	// After the duplicate ages out, the ID is reusable.
	w2, err := NewWindow(Config{R: 1, K: 2, Dim: 2, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Process(p, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Process(geom.Point{ID: 8, Coords: []float64{2, 2}}, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Process(p, t0); err != nil {
		t.Fatalf("ID rejected after eviction: %v", err)
	}
}

func TestDimensionMismatch(t *testing.T) {
	w, err := NewWindow(Config{R: 1, K: 2, Dim: 2, Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	bad := geom.Point{ID: 1, Coords: []float64{1}}
	if _, err := w.Process(bad, t0); err == nil {
		t.Error("Process accepted mismatched dimension")
	}
	if _, err := w.ScorePoint(bad); err == nil {
		t.Error("ScorePoint accepted mismatched dimension")
	}
}

// TestMatchesBatchOnEveryStep is the core correctness property: after every
// single ingest, the window's incremental verdicts equal the batch detector
// run from scratch on the identical window contents.
func TestMatchesBatchOnEveryStep(t *testing.T) {
	const (
		r        = 1.3
		k        = 3
		capacity = 60
		steps    = 400
	)
	rng := rand.New(rand.NewSource(99))
	w, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		// Drift the stream so eviction crosses density regimes.
		center := float64(i) / 40
		p := randPoint(uint64(i), 2, 4, rng)
		p.Coords[0] += center
		if _, err := w.Process(p, t0.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			assertMatchesBatch(t, w, r, k, i)
		}
	}
	assertMatchesBatch(t, w, r, k, steps)
}

// TestTTLEviction checks the time-based horizon with a batch
// cross-validation after every expiry wave.
func TestTTLEviction(t *testing.T) {
	const (
		r   = 1.5
		k   = 2
		ttl = 10 * time.Second
	)
	rng := rand.New(rand.NewSource(5))
	w, err := NewWindow(Config{R: r, K: k, Dim: 2, TTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		if _, err := w.Process(randPoint(uint64(i), 2, 5, rng), now); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats().Len; got > 11 {
			t.Fatalf("step %d: window holds %d points, ttl admits at most 11", i, got)
		}
		assertMatchesBatch(t, w, r, k, i)
	}
	// An idle drain empties the window entirely.
	if n := w.EvictExpired(t0.Add(time.Hour)); n == 0 {
		t.Fatal("EvictExpired evicted nothing")
	}
	if got := w.Stats().Len; got != 0 {
		t.Fatalf("window holds %d points after full drain", got)
	}
	assertMatchesBatch(t, w, r, k, -1)
}

func TestVerdictFields(t *testing.T) {
	w, err := NewWindow(Config{R: 2, K: 1, Dim: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := w.Process(geom.Point{ID: 1, Coords: []float64{0, 0}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Seq != 1 || !v1.Outlier || v1.Neighbors != 0 || v1.Evicted != 0 {
		t.Fatalf("first verdict %+v", v1)
	}
	v2, err := w.Process(geom.Point{ID: 2, Coords: []float64{1, 0}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Seq != 2 || v2.Outlier || v2.Neighbors != 1 {
		t.Fatalf("second verdict %+v", v2)
	}
	// Capacity 2: the third ingest evicts point 1.
	v3, err := w.Process(geom.Point{ID: 3, Coords: []float64{100, 100}}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if v3.Seq != 3 || !v3.Outlier || v3.Evicted != 1 {
		t.Fatalf("third verdict %+v", v3)
	}
	st := w.Stats()
	if st.Len != 2 || st.Ingested != 3 || st.Evicted != 1 || st.Seq != 3 {
		t.Fatalf("stats %+v", st)
	}
	// Point 2 lost its only neighbor and must have flipped to outlier.
	if st.Outliers != 2 || st.FlipOut != 1 {
		t.Fatalf("flip bookkeeping %+v", st)
	}
}

func TestScorePoint(t *testing.T) {
	w, err := NewWindow(Config{R: 2, K: 2, Dim: 2, Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := geom.Point{ID: uint64(i), Coords: []float64{float64(i) * 0.1, 0}}
		if _, err := w.Process(p, t0); err != nil {
			t.Fatal(err)
		}
	}
	// A query inside the cluster is an inlier; scoring does not ingest.
	in, err := w.ScorePoint(geom.Point{ID: 1000, Coords: []float64{0.2, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Outlier || in.Neighbors != 2 {
		t.Fatalf("cluster score %+v", in)
	}
	out, err := w.ScorePoint(geom.Point{ID: 1001, Coords: []float64{50, 50}})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Outlier || out.Neighbors != 0 {
		t.Fatalf("far score %+v", out)
	}
	// Scoring a resident point excludes itself, matching batch semantics.
	self, err := w.ScorePoint(geom.Point{ID: 0, Coords: []float64{0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if self.Neighbors != 2 {
		t.Fatalf("self score %+v", self)
	}
	if got := w.Stats().Len; got != 5 {
		t.Fatalf("scoring mutated the window: len %d", got)
	}
}

// TestConcurrentHammer drives concurrent ingest, score, and stats reads
// under the race detector, then cross-validates the final window against
// the batch detector.
func TestConcurrentHammer(t *testing.T) {
	const (
		r        = 1.0
		k        = 3
		capacity = 300
		writers  = 4
		readers  = 4
		perG     = 250
	)
	w, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				p := randPoint(uint64(g*perG+i), 2, 8, rng)
				if _, err := w.Process(p, t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < perG; i++ {
				q := randPoint(uint64(1_000_000+g*perG+i), 2, 8, rng)
				if _, err := w.ScorePoint(q); err != nil {
					t.Error(err)
					return
				}
				if i%50 == 0 {
					w.Stats()
					w.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Ingested != writers*perG {
		t.Fatalf("ingested %d, want %d", st.Ingested, writers*perG)
	}
	if st.Len != capacity {
		t.Fatalf("window len %d, want %d", st.Len, capacity)
	}
	assertMatchesBatch(t, w, r, k, -1)
}

// TestConcurrentHammerScrapes is TestConcurrentHammer through the batch
// entries with the metrics registry scraped all the while: the gauge funcs
// read the FIFO-backed occupancy and the outlier tally under the one window
// mutex that ProcessBatch mutates them under, which is what the race
// detector checks here. Afterwards the gauges equal Stats.
func TestConcurrentHammerScrapes(t *testing.T) {
	const (
		r        = 1.0
		k        = 3
		capacity = 300
		writers  = 3
		batches  = 25
		lines    = 10
	)
	reg := obs.NewRegistry()
	w, err := NewWindow(Config{R: r, K: k, Dim: 2, Capacity: capacity, TTL: time.Hour, Shards: 8, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var writing, reading sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < writers; g++ {
		writing.Add(1)
		go func(g int) {
			defer writing.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for b := 0; b < batches; b++ {
				pts := make([]geom.Point, lines)
				for i := range pts {
					pts[i] = randPoint(uint64((g*batches+b)*lines+i), 2, 8, rng)
				}
				if _, errsOut := w.ProcessBatch(pts, t0.Add(time.Duration(b)*time.Millisecond)); errsOut[0] != nil {
					t.Error(errsOut[0])
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		reading.Add(2)
		go func(g int) { // scorers
			defer reading.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				qs := []geom.Point{randPoint(uint64(1_000_000+i), 2, 8, rng), randPoint(uint64(2_000_000+i), 2, 8, rng)}
				if _, errsOut := w.ScoreBatch(qs, 2); errsOut[0] != nil {
					t.Error(errsOut[0])
					return
				}
			}
		}(g)
		go func() { // scrapers
			defer reading.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				w.EvictExpired(t0)
				w.Stats()
			}
		}()
	}
	writing.Wait()
	close(done)
	reading.Wait()

	st := w.Stats()
	if st.Ingested != writers*batches*lines || st.Len != capacity {
		t.Fatalf("stats after hammer: %+v", st)
	}
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		fmt.Sprintf("dod_stream_window_points %d\n", st.Len),
		fmt.Sprintf("dod_stream_outliers %d\n", st.Outliers),
		fmt.Sprintf("dod_stream_ingested_total %d\n", st.Ingested),
		fmt.Sprintf("dod_stream_evicted_total %d\n", st.Evicted),
	} {
		if !strings.Contains(page.String(), line) {
			t.Errorf("metrics page lacks %q", line)
		}
	}
	assertMatchesBatch(t, w, r, k, -1)
}

// BenchmarkStreamIngestScore measures the serving hot path — one ingest
// plus a handful of concurrent scores per iteration — across shard counts,
// demonstrating that read throughput scales with the lock striping.
func BenchmarkStreamIngestScore(b *testing.B) {
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const capacity = 4096
			w, err := NewWindow(Config{R: 0.5, K: 4, Dim: 2, Capacity: capacity, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < capacity; i++ {
				if _, err := w.Process(randPoint(uint64(i), 2, 20, rng), t0); err != nil {
					b.Fatal(err)
				}
			}
			var mu sync.Mutex
			nextID := uint64(capacity)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(7))
				for pb.Next() {
					mu.Lock()
					id := nextID
					nextID++
					mu.Unlock()
					p := randPoint(id, 2, 20, rng)
					if _, err := w.Process(p, t0); err != nil {
						b.Error(err)
						return
					}
					for j := 0; j < 4; j++ {
						q := randPoint(1_000_000_000+id, 2, 20, rng)
						if _, err := w.ScorePoint(q); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}
