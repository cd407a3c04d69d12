package dod

import (
	"math/rand"
	"reflect"
	"testing"

	"dod/internal/synth"
)

// testDataset builds a clustered dataset with known isolated outliers.
func testDataset(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, 0, n+3)
	for i := 0; i < n; i++ {
		cx, cy := 20.0, 20.0
		if i%3 == 0 {
			cx, cy = 70, 65
		}
		pts = append(pts, Point{ID: uint64(i), Coords: []float64{
			cx + rng.NormFloat64()*4, cy + rng.NormFloat64()*4,
		}})
	}
	pts = append(pts,
		Point{ID: 90001, Coords: []float64{1, 95}},
		Point{ID: 90002, Coords: []float64{95, 3}},
		Point{ID: 90003, Coords: []float64{50, 99}},
	)
	return pts
}

func TestDetectFindsPlantedOutliers(t *testing.T) {
	pts := testDataset(1000, 1)
	res, err := Detect(pts, Config{R: 5, K: 4, SampleRate: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{90001, 90002, 90003} {
		if !res.IsOutlier(id) {
			t.Errorf("planted outlier %d not detected", id)
		}
	}
	if res.IsOutlier(0) {
		t.Error("cluster member 0 misclassified")
	}
}

// TestDetectMatchesCentralizedForAllStrategies pins the seam between the
// planner and the detectors: whatever plan a strategy cuts — on a toy
// input, on the benchmark's batch-small input under each sampling seed of
// its cycle, on a skewed multi-segment input — the distributed job returns
// exactly the brute-force outlier set.
func TestDetectMatchesCentralizedForAllStrategies(t *testing.T) {
	jittered := synth.Segment(synth.Massachusetts, 20000, 1)
	rng := rand.New(rand.NewSource(1))
	for i := range jittered {
		for j := range jittered[i].Coords {
			jittered[i].Coords[j] += 0.5 * rng.NormFloat64()
		}
	}
	for _, in := range []struct {
		name       string
		points     []Point
		sampleRate float64
		seeds      []int64
	}{
		{"toy", testDataset(800, 3), 1, []int64{4}},
		{"batch-small", jittered, 0.05, []int64{1, 2, 3, 4, 5, 6, 7, 8}},
		{"hierarchical", synth.Hierarchical(synth.LevelUS, 250, 1), 0.5, []int64{1}},
	} {
		want, err := DetectCentralized(in.points, BruteForce, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range []Strategy{StrategyDomain, StrategyUniSpace, StrategyDDriven, StrategyCDriven, StrategyDMT} {
			for _, seed := range in.seeds {
				res, err := Detect(in.points, Config{
					R: 5, K: 4,
					Strategy:   strategy,
					SampleRate: in.sampleRate,
					Seed:       seed,
				})
				if err != nil {
					t.Fatalf("%s/%s/seed %d: %v", in.name, strategy, seed, err)
				}
				if !reflect.DeepEqual(res.OutlierIDs, want) {
					t.Errorf("%s/%s/seed %d: %d outliers, brute force finds %d", in.name, strategy, seed, len(res.OutlierIDs), len(want))
				}
			}
		}
	}
}

func TestDetectCentralizedDetectors(t *testing.T) {
	pts := testDataset(500, 5)
	want, err := DetectCentralized(pts, BruteForce, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Detector{NestedLoop, CellBased, KDTree} {
		got, err := DetectCentralized(pts, d, 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v disagrees with brute force", d)
		}
	}
}

func TestDetectValidation(t *testing.T) {
	pts := testDataset(10, 7)
	if _, err := Detect(pts, Config{R: 0, K: 4}); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := Detect(pts, Config{R: 5, K: 0}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := Detect(nil, Config{R: 5, K: 4}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Detect(pts, Config{R: 5, K: 4, Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := DetectCentralized(nil, CellBased, 5, 4); err == nil {
		t.Error("empty centralized dataset accepted")
	}
	if _, err := DetectCentralized(testDataset(5, 1), CellBased, -1, 4); err == nil {
		t.Error("negative r accepted")
	}
}

func TestDetectRejectsDuplicateIDs(t *testing.T) {
	pts := testDataset(10, 7)
	dup := append(append([]Point(nil), pts...), Point{ID: pts[3].ID, Coords: []float64{1, 2}})
	if _, err := Detect(dup, Config{R: 5, K: 4}); err == nil {
		t.Error("Detect accepted duplicate point IDs")
	}
	if _, err := DetectCentralized(dup, CellBased, 5, 4); err == nil {
		t.Error("DetectCentralized accepted duplicate point IDs")
	}
	if _, err := Detect(pts, Config{R: 5, K: 4, SampleRate: 1}); err != nil {
		t.Errorf("unique IDs rejected: %v", err)
	}
}

func TestSortIDs(t *testing.T) {
	ids := []uint64{9, 1, 7, 7, 0, 42, 3}
	sortIDs(ids)
	want := []uint64{0, 1, 3, 7, 7, 9, 42}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("sortIDs = %v, want %v", ids, want)
	}
	sortIDs(nil) // must not panic on empty input
}

func TestResultIsOutlier(t *testing.T) {
	r := &Result{OutlierIDs: []uint64{2, 5, 9}}
	for _, id := range []uint64{2, 5, 9} {
		if !r.IsOutlier(id) {
			t.Errorf("IsOutlier(%d) = false", id)
		}
	}
	for _, id := range []uint64{0, 3, 10} {
		if r.IsOutlier(id) {
			t.Errorf("IsOutlier(%d) = true", id)
		}
	}
	empty := &Result{}
	if empty.IsOutlier(1) {
		t.Error("empty result claims outlier")
	}
}

func TestDetectReportPopulated(t *testing.T) {
	pts := testDataset(600, 9)
	res, err := Detect(pts, Config{R: 5, K: 4, SampleRate: 1, Seed: 10, NumReducers: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil || rep.Plan == nil {
		t.Fatal("report or plan missing")
	}
	if rep.Plan.NumReducers != 4 {
		t.Errorf("NumReducers = %d, want 4", rep.Plan.NumReducers)
	}
	if rep.ShuffleBytes == 0 || rep.Simulated.Reduce == 0 {
		t.Errorf("report metrics empty: %+v", rep)
	}
}

func TestDetectDeterministicAcrossRuns(t *testing.T) {
	pts := testDataset(700, 11)
	cfg := Config{R: 5, K: 4, SampleRate: 0.5, Seed: 12}
	a, err := Detect(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Detect(pts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.OutlierIDs, b.OutlierIDs) {
		t.Error("same seed produced different outlier sets")
	}
}

func TestDetectWithExplicitDetectorAndCandidates(t *testing.T) {
	pts := testDataset(500, 13)
	want, _ := DetectCentralized(pts, BruteForce, 5, 4)
	res, err := Detect(pts, Config{
		R: 5, K: 4,
		Strategy:   StrategyCDriven,
		Detector:   NestedLoop,
		SampleRate: 1,
		Seed:       14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.OutlierIDs, want) {
		t.Error("CDriven+NestedLoop mismatch")
	}
	res, err = Detect(pts, Config{
		R: 5, K: 4,
		Candidates: []Detector{NestedLoop, CellBased, KDTree},
		SampleRate: 1,
		Seed:       15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.OutlierIDs, want) {
		t.Error("extended candidate set mismatch")
	}
}
