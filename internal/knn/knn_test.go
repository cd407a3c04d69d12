package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dod/internal/core"
	"dod/internal/geom"
)

// bruteTopN is the quadratic reference.
func bruteTopN(points []geom.Point, params Params) []Outlier {
	out := make([]Outlier, 0, len(points))
	for _, p := range points {
		var ds []float64
		for _, q := range points {
			if q.ID == p.ID {
				continue
			}
			ds = append(ds, geom.Dist(p, q))
		}
		sort.Float64s(ds)
		out = append(out, Outlier{ID: p.ID, Dist: ds[params.K-1]})
	}
	rank(out)
	return out[:params.N]
}

func scene(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n+3)
	for i := 0; i < n; i++ {
		cx, cy := 20.0, 20.0
		if i%3 == 0 {
			cx, cy = 70, 55
		}
		pts = append(pts, geom.Point{ID: uint64(i), Coords: []float64{
			cx + rng.NormFloat64()*6, cy + rng.NormFloat64()*6,
		}})
	}
	pts = append(pts,
		geom.Point{ID: 90001, Coords: []float64{5, 95}},
		geom.Point{ID: 90002, Coords: []float64{95, 5}},
		geom.Point{ID: 90003, Coords: []float64{98, 98}},
	)
	return pts
}

func assertSameRanking(t *testing.T, got, want []Outlier) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d: got %d (%g), want %d (%g)", i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("rank %d: dist %g vs %g", i, got[i].Dist, want[i].Dist)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{K: 1, N: 1}).Validate(); err != nil {
		t.Errorf("valid rejected: %v", err)
	}
	if err := (Params{K: 0, N: 1}).Validate(); err == nil {
		t.Error("k=0 accepted")
	}
	if err := (Params{K: 1, N: 0}).Validate(); err == nil {
		t.Error("n=0 accepted")
	}
}

func TestTopNMatchesBruteForce(t *testing.T) {
	pts := scene(1, 400)
	params := Params{K: 5, N: 10}
	got, err := TopN(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, got, bruteTopN(pts, params))
}

func TestTopNPlantedOutliersRankFirst(t *testing.T) {
	pts := scene(2, 600)
	got, err := TopN(pts, Params{K: 4, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	found := map[uint64]bool{}
	for _, o := range got {
		found[o.ID] = true
	}
	for _, id := range []uint64{90001, 90002, 90003} {
		if !found[id] {
			t.Errorf("planted outlier %d not in top 3: %v", id, got)
		}
	}
}

func TestTopNValidation(t *testing.T) {
	if _, err := TopN(scene(3, 10), Params{K: 20, N: 1}); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := TopN(nil, Params{K: 1, N: 1}); err == nil {
		t.Error("empty dataset accepted")
	}
}

func TestTopNRankingDeterministicOnTies(t *testing.T) {
	// Four corners of a square: all have identical kNN distances.
	pts := []geom.Point{
		{ID: 3, Coords: []float64{0, 0}},
		{ID: 1, Coords: []float64{1, 0}},
		{ID: 2, Coords: []float64{0, 1}},
		{ID: 4, Coords: []float64{1, 1}},
	}
	got, err := TopN(pts, Params{K: 1, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3, 4} {
		if got[i].ID != want {
			t.Errorf("tie rank %d: got %d, want %d", i, got[i].ID, want)
		}
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	pts := scene(4, 800)
	params := Params{K: 5, N: 12}
	want, err := TopN(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0, 1, 5, 30} { // 0 = auto
		got, err := TopNDistributed(pts, params, s, core.AreaOptions{
			NumPartitions: 16, NumReducers: 4, Seed: 7,
		})
		if err != nil {
			t.Fatalf("s=%g: %v", s, err)
		}
		assertSameRanking(t, got, want)
	}
}

func TestDistributedTinySupportForcesRoundTwo(t *testing.T) {
	// A support radius of ~0 makes every point a round-2 candidate; the
	// result must still be exact.
	pts := scene(5, 300)
	params := Params{K: 3, N: 8}
	want, err := TopN(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TopNDistributed(pts, params, 1e-9, core.AreaOptions{
		NumPartitions: 9, NumReducers: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, got, want)
}

func TestDistributedRandomizedEquivalence(t *testing.T) {
	for trial := int64(0); trial < 5; trial++ {
		rng := rand.New(rand.NewSource(40 + trial))
		n := 150 + rng.Intn(400)
		pts := scene(trial, n)
		params := Params{K: 1 + rng.Intn(6), N: 1 + rng.Intn(15)}
		want, err := TopN(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		got, err := TopNDistributed(pts, params, 0, core.AreaOptions{
			NumPartitions: 4 + rng.Intn(30), NumReducers: 1 + rng.Intn(6), Seed: trial,
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertSameRanking(t, got, want)
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := TopNDistributed(scene(6, 10), Params{K: 50, N: 1}, 0, core.AreaOptions{}); err == nil {
		t.Error("k >= n accepted")
	}
	if _, err := TopNDistributed(scene(6, 100), Params{K: 0, N: 1}, 0, core.AreaOptions{}); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKNearestExcludesSelf(t *testing.T) {
	pts := []geom.Point{
		{ID: 1, Coords: []float64{0, 0}},
		{ID: 2, Coords: []float64{3, 4}},
	}
	set := geom.PointSetOf(pts)
	tree := geom.NewKDTree(set)
	d, ok := kthDistance(tree, set, 0, 1, make([]float64, 0, 1))
	if !ok || d != 5 {
		t.Errorf("kthDistance = %g, %v; want 5, true", d, ok)
	}
	if _, ok := kthDistance(tree, set, 0, 2, make([]float64, 0, 2)); ok {
		t.Error("k=2 with one neighbor should report not-ok")
	}
}
