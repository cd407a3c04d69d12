package sample

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dod/internal/codec"
	"dod/internal/geom"
	"dod/internal/mapreduce"
)

func domain10() geom.Rect {
	return geom.NewRect([]float64{0, 0}, []float64{10, 10})
}

func uniformPoints(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 10, rng.Float64() * 10}}
	}
	return pts
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Domain: domain10(), BucketsPerDim: 0, Rate: 0.5},
		{Domain: domain10(), BucketsPerDim: 4, Rate: 0},
		{Domain: domain10(), BucketsPerDim: 4, Rate: 1.5},
	}
	for i, cfg := range bad {
		if _, err := FromPoints(cfg, nil); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestFromPointsFullRateExact(t *testing.T) {
	// Rate 1.0: the histogram is an exact per-bucket count.
	pts := uniformPoints(1000, 1)
	cfg := Config{Domain: domain10(), BucketsPerDim: 5, Rate: 1.0, Seed: 2}
	h, err := FromPoints(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EstimatedTotal(); got != 1000 {
		t.Errorf("EstimatedTotal = %g, want 1000", got)
	}
	// Cross-check one bucket by brute force.
	ord := h.Grid.CellOrdinal(pts[0])
	rect := h.Grid.CellRect(h.Grid.Unflatten(ord))
	manual := 0
	for _, p := range pts {
		if h.Grid.CellOrdinal(p) == ord {
			manual++
		}
	}
	if h.BucketCount(ord) != float64(manual) {
		t.Errorf("bucket %d (%v): count %g, manual %d", ord, rect, h.BucketCount(ord), manual)
	}
}

func TestFromPointsScalingUnbiased(t *testing.T) {
	// At rate 0.1 the scaled total should estimate the true cardinality
	// within a loose tolerance.
	pts := uniformPoints(20000, 3)
	cfg := Config{Domain: domain10(), BucketsPerDim: 4, Rate: 0.1, Seed: 4}
	h, err := FromPoints(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EstimatedTotal(); math.Abs(got-20000) > 2000 {
		t.Errorf("EstimatedTotal = %g, want ≈ 20000", got)
	}
}

func TestBucketDensityUniform(t *testing.T) {
	pts := uniformPoints(40000, 5)
	cfg := Config{Domain: domain10(), BucketsPerDim: 2, Rate: 1.0, Seed: 6}
	h, _ := FromPoints(cfg, pts)
	// Uniform data: every bucket's density ≈ 40000/100 = 400 per unit².
	for ord := 0; ord < h.Grid.NumCells(); ord++ {
		if d := h.BucketDensity(ord); math.Abs(d-400) > 40 {
			t.Errorf("bucket %d density = %g, want ≈ 400", ord, d)
		}
	}
}

func TestOutOfDomainPointsClamped(t *testing.T) {
	pts := []geom.Point{
		{ID: 1, Coords: []float64{-5, -5}},
		{ID: 2, Coords: []float64{100, 100}},
	}
	cfg := Config{Domain: domain10(), BucketsPerDim: 2, Rate: 1.0, Seed: 1}
	h, err := FromPoints(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EstimatedTotal(); got != 2 {
		t.Errorf("clamped points lost: total %g", got)
	}
}

func TestNonEmptyBuckets(t *testing.T) {
	pts := []geom.Point{{ID: 1, Coords: []float64{1, 1}}, {ID: 2, Coords: []float64{9, 9}}}
	cfg := Config{Domain: domain10(), BucketsPerDim: 2, Rate: 1.0, Seed: 1}
	h, _ := FromPoints(cfg, pts)
	ne := h.NonEmptyBuckets()
	if len(ne) != 2 {
		t.Errorf("NonEmptyBuckets = %v, want 2 buckets", ne)
	}
}

func splitsFor(points []geom.Point, perSplit int) []mapreduce.Split {
	var splits []mapreduce.Split
	for i := 0; i < len(points); i += perSplit {
		j := i + perSplit
		if j > len(points) {
			j = len(points)
		}
		splits = append(splits, mapreduce.Split{
			Name: "block",
			Data: codec.EncodePoints(points[i:j]),
		})
	}
	return splits
}

func TestRunJobMatchesLocalStatistically(t *testing.T) {
	pts := uniformPoints(30000, 7)
	cfg := Config{Domain: domain10(), BucketsPerDim: 4, Rate: 0.2, Seed: 9}
	h, res, err := RunJob(cfg, mapreduce.Config{}, splitsFor(pts, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if got := h.EstimatedTotal(); math.Abs(got-30000) > 3000 {
		t.Errorf("distributed EstimatedTotal = %g, want ≈ 30000", got)
	}
	if res.Metrics.Counter("sample.scanned") != 30000 {
		t.Errorf("scanned = %d, want 30000", res.Metrics.Counter("sample.scanned"))
	}
	sampled := res.Metrics.Counter("sample.sampled")
	if math.Abs(float64(sampled)-6000) > 600 {
		t.Errorf("sampled = %d, want ≈ 6000", sampled)
	}
}

func TestRunJobFullRateExact(t *testing.T) {
	pts := uniformPoints(500, 11)
	cfg := Config{Domain: domain10(), BucketsPerDim: 3, Rate: 1.0, Seed: 13}
	h, _, err := RunJob(cfg, mapreduce.Config{}, splitsFor(pts, 64))
	if err != nil {
		t.Fatal(err)
	}
	local, _ := FromPoints(cfg, pts)
	for ord := range h.Counts {
		if h.Counts[ord] != local.Counts[ord] {
			t.Errorf("bucket %d: job %g, local %g", ord, h.Counts[ord], local.Counts[ord])
		}
	}
}

func TestRunJobDeterministicAcrossRuns(t *testing.T) {
	pts := uniformPoints(5000, 15)
	cfg := Config{Domain: domain10(), BucketsPerDim: 4, Rate: 0.3, Seed: 17}
	splits := splitsFor(pts, 500)
	h1, _, err := RunJob(cfg, mapreduce.Config{Parallelism: 1}, splits)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := RunJob(cfg, mapreduce.Config{Parallelism: 8}, splits)
	if err != nil {
		t.Fatal(err)
	}
	for ord := range h1.Counts {
		if h1.Counts[ord] != h2.Counts[ord] {
			t.Fatalf("bucket %d differs across parallelism: %g vs %g", ord, h1.Counts[ord], h2.Counts[ord])
		}
	}
}

func TestRunJobSurvivesTaskFailures(t *testing.T) {
	pts := uniformPoints(2000, 19)
	cfg := Config{Domain: domain10(), BucketsPerDim: 4, Rate: 1.0, Seed: 21}
	splits := splitsFor(pts, 200)
	clean, _, err := RunJob(cfg, mapreduce.Config{}, splits)
	if err != nil {
		t.Fatal(err)
	}
	flaky, _, err := RunJob(cfg, mapreduce.Config{FailureRate: 0.3, MaxAttempts: 50, Seed: 23}, splits)
	if err != nil {
		t.Fatal(err)
	}
	for ord := range clean.Counts {
		if clean.Counts[ord] != flaky.Counts[ord] {
			t.Fatalf("bucket %d: failure injection changed result", ord)
		}
	}
}

func TestRunJobRejectsCorruptSplit(t *testing.T) {
	cfg := Config{Domain: domain10(), BucketsPerDim: 2, Rate: 1.0, Seed: 1}
	splits := []mapreduce.Split{{Name: "bad", Data: []byte{0xFF}}}
	if _, _, err := RunJob(cfg, mapreduce.Config{}, splits); err == nil {
		t.Error("corrupt split accepted")
	}
}

// RunJob is RunJobContext without cancellation.
func RunJob(cfg Config, mrCfg mapreduce.Config, splits []mapreduce.Split) (*Histogram, *mapreduce.Result, error) {
	return RunJobContext(context.Background(), cfg, mrCfg, splits)
}
