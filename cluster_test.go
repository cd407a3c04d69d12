package dod

import (
	"math/rand"
	"runtime"
	"testing"
)

func clusteredPoints(seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	var pts []Point
	id := uint64(0)
	for _, c := range [][2]float64{{15, 15}, {60, 20}, {40, 70}} {
		for i := 0; i < 150; i++ {
			pts = append(pts, Point{ID: id, Coords: []float64{
				c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64(),
			}})
			id++
		}
	}
	pts = append(pts, Point{ID: 9999, Coords: []float64{95, 95}}) // noise
	return pts
}

func TestDBSCANFindsClusters(t *testing.T) {
	pts := clusteredPoints(1)
	res, err := DBSCAN(pts, DBSCANConfig{Eps: 2, MinPts: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Errorf("got %d clusters, want 3", res.NumClusters)
	}
	if res.Labels[9999] != DBSCANNoise {
		t.Errorf("isolated point labeled %d, want noise", res.Labels[9999])
	}
}

func TestDBSCANMatchesCentralized(t *testing.T) {
	pts := clusteredPoints(3)
	dist, err := DBSCAN(pts, DBSCANConfig{Eps: 2, MinPts: 4, NumPartitions: 25, NumReducers: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	central, err := DBSCANCentralized(pts, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if dist.NumClusters != central.NumClusters {
		t.Errorf("cluster counts: distributed %d, centralized %d", dist.NumClusters, central.NumClusters)
	}
	// Same-cluster relation must agree (labels may be renumbered).
	mapping := map[int]int{}
	for id, lc := range central.Labels {
		ld := dist.Labels[id]
		if (lc == DBSCANNoise) != (ld == DBSCANNoise) {
			t.Fatalf("point %d noise status differs", id)
		}
		if lc == DBSCANNoise {
			continue
		}
		if prev, ok := mapping[lc]; ok && prev != ld {
			t.Fatalf("cluster %d maps to both %d and %d", lc, prev, ld)
		}
		mapping[lc] = ld
	}
}

func TestDBSCANValidation(t *testing.T) {
	if _, err := DBSCAN(nil, DBSCANConfig{Eps: 1, MinPts: 2}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := DBSCAN(clusteredPoints(5), DBSCANConfig{Eps: 0, MinPts: 2}); err == nil {
		t.Error("eps=0 accepted")
	}
}

func TestLOCIMatchesCentralized(t *testing.T) {
	// A dense jittered field with one carved hole and a lone point inside.
	rng := rand.New(rand.NewSource(31))
	var pts []Point
	id := uint64(0)
	for gx := 0; gx < 40; gx++ {
		for gy := 0; gy < 40; gy++ {
			x, y := float64(gx)+rng.Float64(), float64(gy)+rng.Float64()
			if dx, dy := x-20, y-20; dx*dx+dy*dy < 25 {
				continue
			}
			pts = append(pts, Point{ID: id, Coords: []float64{x, y}})
			id++
		}
	}
	pts = append(pts, Point{ID: 77777, Coords: []float64{20, 20}})

	dist, err := LOCI(pts, LOCIConfig{R: 6, NumPartitions: 16, NumReducers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	central, err := LOCICentralized(pts, 6, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) != len(central) {
		t.Fatalf("distributed %d outliers, centralized %d", len(dist), len(central))
	}
	for i := range dist {
		if dist[i] != central[i] {
			t.Fatalf("outlier %d differs: %d vs %d", i, dist[i], central[i])
		}
	}
	found := false
	for _, oid := range dist {
		if oid == 77777 {
			found = true
		}
	}
	if !found {
		t.Error("lone point in the hole not flagged")
	}
}

func TestLOCIValidation(t *testing.T) {
	if _, err := LOCI(nil, LOCIConfig{R: 1}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := LOCICentralized([]Point{{ID: 1, Coords: []float64{0, 0}}}, -1, 0.5, 3); err == nil {
		t.Error("negative r accepted")
	}
}

func TestKNNOutliersMatchCentralized(t *testing.T) {
	pts := testDataset(700, 41)
	want, err := KNNOutliersCentralized(pts, 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KNNOutliers(pts, KNNConfig{K: 5, N: 6, NumPartitions: 16, NumReducers: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d outliers, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d: %d vs %d", i, got[i].ID, want[i].ID)
		}
	}
	// The three planted far points must rank in the top 6.
	planted := map[uint64]bool{90001: true, 90002: true, 90003: true}
	hits := 0
	for _, o := range got {
		if planted[o.ID] {
			hits++
		}
	}
	if hits != 3 {
		t.Errorf("only %d/3 planted outliers in top 6: %v", hits, got)
	}
}

func TestKNNOutliersValidation(t *testing.T) {
	if _, err := KNNOutliers(nil, KNNConfig{K: 1, N: 1}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := KNNOutliersCentralized(testDataset(50, 1), 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestDetectWithExactSupport(t *testing.T) {
	pts := testDataset(900, 21)
	want, err := DetectCentralized(pts, BruteForce, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(pts, Config{
		R: 5, K: 4,
		ExactSupport: true,
		SampleRate:   1,
		Seed:         22,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutlierIDs) != len(want) {
		t.Fatalf("exact-support run found %d outliers, want %d", len(res.OutlierIDs), len(want))
	}
	for i := range want {
		if res.OutlierIDs[i] != want[i] {
			t.Fatalf("outlier %d differs", i)
		}
	}
}

// TestGeneralityHighDimAllocs bounds what one DBSCAN, LOCI and KNNOutliers
// call allocates at d = 6, 8 and 10: their plan reads only the domain, so
// the domain-only histogram must stay capped the way the sampling job caps
// its grid instead of growing 8× per dimension (8^8 zero cells are 134 MB),
// and Plan.Locate's overlay grid must stay at its d = 2 cell count instead
// of testing up to 2^20 cells against every partition.
func TestGeneralityHighDimAllocs(t *testing.T) {
	// Ceilings in mallocs per call at d = 6, 8, 10, the most of 3 calls:
	// the most measured at GOMAXPROCS 1, 2, 4 and 8 and under -race, plus
	// 10 %. Mallocs, not bytes: TotalAlloc moves by tens of KB from run to
	// run. DBSCAN's BFS queues each point once; when it queued every
	// neighbour list, d = 6 took ~210 MB. The uniSpace plan reads a
	// one-bucket histogram; when it zero-filled a grid of up to 2²⁰
	// buckets, d = 8 and 10 took 3–10 MB.
	ceilings := map[string][3]uint64{
		"DBSCAN":      {51830, 1650, 1650},
		"LOCI":        {2990, 250, 250},
		"KNNOutliers": {79660, 8500, 8500},
	}
	for di, d := range []int{6, 8, 10} {
		rng := rand.New(rand.NewSource(int64(d)))
		pts := make([]Point, 300)
		for i := range pts {
			c := make([]float64, d)
			for j := range c {
				c[j] = rng.Float64()
			}
			pts[i] = Point{ID: uint64(i), Coords: c}
		}
		for _, run := range []struct {
			name string
			call func() error
		}{
			{"DBSCAN", func() error { _, err := DBSCAN(pts, DBSCANConfig{Eps: 1, MinPts: 4}); return err }},
			{"LOCI", func() error { _, err := LOCI(pts, LOCIConfig{R: 1}); return err }},
			{"KNNOutliers", func() error { _, err := KNNOutliers(pts, KNNConfig{K: 3, N: 5}); return err }},
		} {
			var most uint64
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := run.call(); err != nil {
					t.Fatalf("%s at d=%d: %v", run.name, d, err)
				}
				runtime.ReadMemStats(&after)
				most = max(most, after.Mallocs-before.Mallocs)
			}
			if ceiling := ceilings[run.name][di]; most > ceiling {
				t.Errorf("%s at d=%d made %d mallocs, ceiling %d", run.name, d, most, ceiling)
			}
		}
	}
}

// TestKNNOutliersCentralizedAllocs gates the centralized kNN ranking's
// mallocs on 20 000 2-D points: the tree, its heap and the point set are
// a few flat arrays, so the count does not grow with n. 78 measured, plus
// 10 %.
func TestKNNOutliersCentralizedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 20000)
	for i := range pts {
		pts[i] = Point{ID: uint64(i), Coords: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	const ceiling = 86
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := KNNOutliersCentralized(pts, 5, 10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("KNNOutliersCentralized on 20 000 points made %v mallocs, ceiling %d", allocs, ceiling)
	}
}
