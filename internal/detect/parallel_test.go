package detect

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dod/internal/geom"
	"dod/internal/par"
	"dod/internal/synth"
)

// buildSet converts a randomScene into the columnar form DetectSet consumes.
func buildSet(core, support []geom.Point) (*geom.PointSet, int) {
	all := geom.NewPointSet(core[0].Dim(), len(core)+len(support))
	for _, p := range core {
		all.Append(p)
	}
	for _, p := range support {
		all.Append(p)
	}
	return all, len(core)
}

// TestDetectSetParallelBitIdentical is the tiling contract: for every kind,
// DetectSetParallel at any worker count returns the one-tile Result — same
// OutlierIDs in the same order, same DistComps/PointsIndexed/CellsPruned.
// DetectSet is the one-tile case of the same driver, not an independent
// reference; kernels.golden and BruteForce are the references.
func TestDetectSetParallelBitIdentical(t *testing.T) {
	kinds := []Kind{BruteForce, NestedLoop, CellBased, CellBasedL2, KDTree, Pivot, PGraph, SSample}
	f := func(seed int64) bool {
		core, support, params := randomScene(seed)
		all, nCore := buildSet(core, support)
		for _, kind := range kinds {
			d := New(kind, seed)
			want := DetectSet(d, all, nCore, params)
			for _, workers := range []int{1, 2, 3, 8} {
				got := DetectSetParallel(d, all, nCore, params, workers)
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Logf("seed %d %v workers=%d: stats %+v, want %+v",
						seed, kind, workers, got.Stats, want.Stats)
					return false
				}
				if !equalIDs(got.OutlierIDs, want.OutlierIDs) {
					t.Logf("seed %d %v workers=%d: %d outliers, want %d (order-sensitive)",
						seed, kind, workers, len(got.OutlierIDs), len(want.OutlierIDs))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDetectSetParallelLarge exercises inputs big enough to actually split
// into multiple tiles (randomScene tops out below minTile cells), holding
// N tiles to one.
func TestDetectSetParallelLarge(t *testing.T) {
	pts := synth.Segment(synth.Massachusetts, 6000, 3)
	all, nCore := buildSet(pts, nil)
	params := Params{R: 5, K: 4}
	for _, kind := range []Kind{BruteForce, NestedLoop, CellBased, CellBasedL2, KDTree, Pivot, PGraph, SSample} {
		d := New(kind, 7)
		want := DetectSet(d, all, nCore, params)
		for _, workers := range []int{2, 5, 16} {
			got := DetectSetParallel(d, all, nCore, params, workers)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v workers=%d: tiled result diverges from one tile (outliers %d vs %d, stats %+v vs %+v)",
					kind, workers, len(got.OutlierIDs), len(want.OutlierIDs), got.Stats, want.Stats)
			}
		}
	}
}

// TestDetectSetParallelEdgeCases pins the degenerate paths.
func TestDetectSetParallelEdgeCases(t *testing.T) {
	d := New(CellBased, 1)
	if got := DetectSetParallel(d, geom.NewPointSet(2, 0), 0, Params{R: 1, K: 1}, 4); len(got.OutlierIDs) != 0 {
		t.Errorf("empty set: got %d outliers", len(got.OutlierIDs))
	}
	// A single isolated point is an outlier under any worker count.
	all := geom.NewPointSet(2, 1)
	all.AppendRaw(42, []float64{0, 0})
	for _, workers := range []int{0, 1, 4} {
		got := DetectSetParallel(d, all, 1, Params{R: 1, K: 1}, workers)
		if len(got.OutlierIDs) != 1 || got.OutlierIDs[0] != 42 {
			t.Errorf("workers=%d: got %v, want [42]", workers, got.OutlierIDs)
		}
	}
}

// TestDetectSetParallelRandomWorkers fuzzes worker counts against a fixed
// mid-size workload to catch tile-boundary mistakes.
func TestDetectSetParallelRandomWorkers(t *testing.T) {
	pts := synth.Segment(synth.Massachusetts, 1500, 11)
	all, nCore := buildSet(pts, nil)
	params := Params{R: 5, K: 4}
	d := New(CellBasedL2, 0)
	want := DetectSet(d, all, nCore, params)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		workers := 1 + rng.Intn(32)
		if got := DetectSetParallel(d, all, nCore, params, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverges", workers)
		}
	}
}

// TestCellBasedTilesShareWork is the work bound behind tiling Cell-Based:
// on an 8 000-point Massachusetts segment, four tiles of one prepare split
// the scan's distance computations so that the largest tile holds at most
// half of them, and together they are exactly DetectSet's. A deterministic
// count, unlike a wall-clock speedup, holds on any machine.
func TestCellBasedTilesShareWork(t *testing.T) {
	all, nCore := buildSet(benchPoints2D(8000), nil)
	d := New(CellBased, 7)
	want := DetectSet(d, all, nCore, benchParams)

	const workers = 4
	var prep Stats
	items, scan := d.prepare(all, nCore, benchParams, &prep)
	if tiles := par.Tiles(items, workers); tiles != workers {
		t.Fatalf("%d work items split into %d tiles, want %d", items, tiles, workers)
	}
	parts := make([]Result, workers)
	par.Do(items, workers, func(tile, lo, hi int) { scan(lo, hi, &parts[tile]) })
	var total, largest int64
	for _, p := range parts {
		total += p.Stats.DistComps
		largest = max(largest, p.Stats.DistComps)
	}
	if prep.DistComps+total != want.Stats.DistComps {
		t.Fatalf("prepare %d + tiles %d distance computations, DetectSet %d",
			prep.DistComps, total, want.Stats.DistComps)
	}
	if ratio := float64(total) / float64(largest); ratio < 2 {
		t.Errorf("total/largest tile = %d/%d = %.2f, want >= 2", total, largest, ratio)
	}
}

func benchDetectorParallel(b *testing.B, kind Kind, pts []geom.Point, workers int) {
	b.Helper()
	b.ReportAllocs()
	d := New(kind, 7)
	all, nCore := buildSet(pts, nil)
	var comps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := DetectSetParallel(d, all, nCore, benchParams, workers)
		comps = res.Stats.DistComps
	}
	b.ReportMetric(float64(comps), "distcomps")
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds(), "points/s")
}

// BenchmarkParallelCellBased2D measures the tiled Cell-Based kernel across
// worker counts; workers=0 means GOMAXPROCS. TestCellBasedTilesShareWork
// is the machine-independent bound on how far these can scale.
func BenchmarkParallelCellBased2D(b *testing.B) {
	pts := benchPoints2D(8000)
	for _, workers := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDetectorParallel(b, CellBased, pts, workers)
		})
	}
}

func BenchmarkParallelNestedLoop2D(b *testing.B) {
	pts := benchPoints2D(8000)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDetectorParallel(b, NestedLoop, pts, workers)
		})
	}
}
