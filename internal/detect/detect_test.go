package detect

import (
	"math/rand"
	"sort"
	"testing"

	"dod/internal/geom"
)

var allKinds = []Kind{BruteForce, NestedLoop, CellBased, KDTree, CellBasedL2, Pivot, PGraph}

func sortedIDs(ids []uint64) []uint64 {
	out := append([]uint64(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// cluster generates n points around (cx, cy) within a small radius.
func cluster(rng *rand.Rand, startID uint64, n int, cx, cy, spread float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			ID:     startID + uint64(i),
			Coords: []float64{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread},
		}
	}
	return pts
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		BruteForce: "BruteForce",
		NestedLoop: "Nested-Loop",
		CellBased:  "Cell-Based",
		KDTree:     "KD-Tree",
		Kind(99):   "Kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{R: 1, K: 1}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{R: 0, K: 1}).Validate(); err == nil {
		t.Error("r=0 accepted")
	}
	if err := (Params{R: 1, K: 0}).Validate(); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestObviousOutlier(t *testing.T) {
	// A tight cluster of 10 points plus one far-away point.
	rng := rand.New(rand.NewSource(1))
	core := cluster(rng, 0, 10, 0, 0, 0.1)
	core = append(core, geom.Point{ID: 100, Coords: []float64{50, 50}})
	params := Params{R: 2, K: 3}
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, nil, params)
		if got := sortedIDs(res.OutlierIDs); !equalIDs(got, []uint64{100}) {
			t.Errorf("%v: outliers = %v, want [100]", kind, got)
		}
	}
}

func TestAllInliers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	core := cluster(rng, 0, 20, 5, 5, 0.2)
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, nil, Params{R: 3, K: 4})
		if len(res.OutlierIDs) != 0 {
			t.Errorf("%v: got outliers %v in a tight cluster", kind, res.OutlierIDs)
		}
	}
}

func TestAllOutliers(t *testing.T) {
	// Points spread far apart relative to r: everyone is an outlier.
	core := []geom.Point{
		{ID: 1, Coords: []float64{0, 0}},
		{ID: 2, Coords: []float64{100, 0}},
		{ID: 3, Coords: []float64{0, 100}},
		{ID: 4, Coords: []float64{100, 100}},
	}
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, nil, Params{R: 5, K: 1})
		if got := sortedIDs(res.OutlierIDs); !equalIDs(got, []uint64{1, 2, 3, 4}) {
			t.Errorf("%v: outliers = %v, want all", kind, got)
		}
	}
}

func TestSupportPointsRescueBorderPoint(t *testing.T) {
	// Core point p has no core neighbors, but k support points within r:
	// the support must make it an inlier (Lemma 3.1's necessity direction).
	core := []geom.Point{{ID: 1, Coords: []float64{0, 0}}}
	support := []geom.Point{
		{ID: 2, Coords: []float64{1, 0}},
		{ID: 3, Coords: []float64{0, 1}},
		{ID: 4, Coords: []float64{-1, 0}},
	}
	params := Params{R: 1.5, K: 3}
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, support, params)
		if len(res.OutlierIDs) != 0 {
			t.Errorf("%v: support points ignored, outliers = %v", kind, res.OutlierIDs)
		}
	}
}

func TestSupportPointsAreNotClassified(t *testing.T) {
	// Support points themselves must never be reported, even when isolated.
	core := cluster(rand.New(rand.NewSource(3)), 0, 10, 0, 0, 0.1)
	support := []geom.Point{{ID: 999, Coords: []float64{80, 80}}}
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, support, Params{R: 2, K: 3})
		for _, id := range res.OutlierIDs {
			if id == 999 {
				t.Errorf("%v reported a support point as outlier", kind)
			}
		}
	}
}

func TestExactNeighborBoundary(t *testing.T) {
	// Neighbor at exactly distance r counts (<=, Def. 2.1).
	core := []geom.Point{{ID: 1, Coords: []float64{0, 0}}}
	support := []geom.Point{{ID: 2, Coords: []float64{3, 4}}} // dist exactly 5
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, support, Params{R: 5, K: 1})
		if len(res.OutlierIDs) != 0 {
			t.Errorf("%v: boundary neighbor not counted", kind)
		}
		res = New(kind, 7).Detect(core, support, Params{R: 4.999, K: 1})
		if !equalIDs(res.OutlierIDs, []uint64{1}) {
			t.Errorf("%v: sub-boundary point wrongly counted", kind)
		}
	}
}

func TestKBoundary(t *testing.T) {
	// Point with exactly k neighbors is an inlier; k-1 neighbors is outlier.
	core := []geom.Point{{ID: 1, Coords: []float64{0, 0}}}
	support := []geom.Point{
		{ID: 2, Coords: []float64{0.1, 0}},
		{ID: 3, Coords: []float64{0, 0.1}},
	}
	for _, kind := range allKinds {
		if res := New(kind, 7).Detect(core, support, Params{R: 1, K: 2}); len(res.OutlierIDs) != 0 {
			t.Errorf("%v: exactly k neighbors should be inlier", kind)
		}
		if res := New(kind, 7).Detect(core, support, Params{R: 1, K: 3}); !equalIDs(res.OutlierIDs, []uint64{1}) {
			t.Errorf("%v: k-1 neighbors should be outlier", kind)
		}
	}
}

// TestNeighborBeyondShrunkRing pins the Cell-Based exactness bug the PR 11
// benchmark found (batch-large seeds 27 and 61): on bounds whose extent is
// not a multiple of the cell side, a grid that shrinks its cells to tile the
// bounds puts a neighbor at distance ≈ r four cells away, outside the
// ⌈2√d⌉ = 3 ring, and a point with exactly K neighbors comes out an outlier.
// Here the x extent is 4.2 cell sides (five cells of 0.84 sides when
// shrunk): a sits at the top of cell 0, b 4.9 away in cell 4.
func TestNeighborBeyondShrunkRing(t *testing.T) {
	side := CellSide(2, 5)
	core := []geom.Point{
		{ID: 1, Coords: []float64{0.83 * side, 0}},     // a
		{ID: 2, Coords: []float64{0.83*side + 4.9, 0}}, // b: a's only neighbor
		{ID: 3, Coords: []float64{0, 100}},             // pins the bounds' min x
		{ID: 4, Coords: []float64{4.2 * side, -100}},   // and their max x
	}
	params := Params{R: 5, K: 1}
	want := sortedIDs(New(BruteForce, 7).Detect(core, nil, params).OutlierIDs)
	if !equalIDs(want, []uint64{3, 4}) {
		t.Fatalf("brute force outliers = %v, want [3 4]", want)
	}
	for _, kind := range allKinds {
		got := sortedIDs(New(kind, 7).Detect(core, nil, params).OutlierIDs)
		if !equalIDs(got, want) {
			t.Errorf("%v: outliers %v, want %v", kind, got, want)
		}
	}
}

// TestNeighborAtRoundedR pins the Pivot exactness bug FuzzExactTacticsAgree
// found: a and b are R apart, but their rounded distances to c differ by R
// plus an ulp, and a triangle filter cut at exactly R pruned the neighbor.
// With three points every point is a pivot.
func TestNeighborAtRoundedR(t *testing.T) {
	core := []geom.Point{
		{ID: 1, Coords: []float64{0.27}},         // a
		{ID: 2, Coords: []float64{0.27 + 0.625}}, // b
		{ID: 3, Coords: []float64{4.59}},         // c
	}
	params := Params{R: 0.625, K: 1}
	want := sortedIDs(New(BruteForce, 7).Detect(core, nil, params).OutlierIDs)
	if !equalIDs(want, []uint64{3}) {
		t.Fatalf("brute force outliers = %v, want [3]", want)
	}
	for _, kind := range allKinds {
		if got := sortedIDs(New(kind, 7).Detect(core, nil, params).OutlierIDs); !equalIDs(got, want) {
			t.Errorf("%v: outliers %v, want %v", kind, got, want)
		}
	}
}

func TestEmptyCore(t *testing.T) {
	support := cluster(rand.New(rand.NewSource(4)), 0, 5, 0, 0, 1)
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(nil, support, Params{R: 1, K: 2})
		if len(res.OutlierIDs) != 0 {
			t.Errorf("%v: empty core produced outliers", kind)
		}
	}
}

func TestSinglePoint(t *testing.T) {
	core := []geom.Point{{ID: 42, Coords: []float64{1, 1}}}
	for _, kind := range allKinds {
		res := New(kind, 7).Detect(core, nil, Params{R: 1, K: 1})
		if !equalIDs(res.OutlierIDs, []uint64{42}) {
			t.Errorf("%v: lone point must be outlier, got %v", kind, res.OutlierIDs)
		}
	}
}

// TestDetectorEquivalence is the central cross-detector property test: all
// four detectors must produce the identical outlier set on randomized
// workloads with varied density regimes.
func TestDetectorEquivalence(t *testing.T) {
	scenarios := []struct {
		name   string
		spread float64
		n      int
		r      float64
		k      int
	}{
		{"dense", 0.5, 300, 2, 4},
		{"medium", 5, 300, 2, 4},
		{"sparse", 50, 300, 2, 4},
		{"highk", 3, 200, 3, 20},
		{"tiny-r", 10, 200, 0.05, 2},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			var core, support []geom.Point
			for c := 0; c < 3; c++ {
				cx, cy := rng.Float64()*40, rng.Float64()*40
				core = append(core, cluster(rng, uint64(c*1000), sc.n/3, cx, cy, sc.spread)...)
			}
			support = cluster(rng, 50000, sc.n/5, 20, 20, sc.spread*2)

			ref := New(BruteForce, 0).Detect(core, support, Params{R: sc.r, K: sc.k})
			want := sortedIDs(ref.OutlierIDs)
			for _, kind := range allKinds[1:] {
				res := New(kind, 123).Detect(core, support, Params{R: sc.r, K: sc.k})
				got := sortedIDs(res.OutlierIDs)
				if !equalIDs(got, want) {
					t.Errorf("%v disagrees with BruteForce:\n got %v\nwant %v", kind, got, want)
				}
			}
		})
	}
}

func TestDetectorEquivalence3D(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 200)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), Coords: []float64{
			rng.Float64() * 20, rng.Float64() * 20, rng.Float64() * 20,
		}}
	}
	params := Params{R: 3, K: 5}
	want := sortedIDs(New(BruteForce, 0).Detect(pts, nil, params).OutlierIDs)
	for _, kind := range allKinds[1:] {
		got := sortedIDs(New(kind, 5).Detect(pts, nil, params).OutlierIDs)
		if !equalIDs(got, want) {
			t.Errorf("%v disagrees in 3D: got %d outliers, want %d", kind, len(got), len(want))
		}
	}
}

func TestNestedLoopSeedIndependence(t *testing.T) {
	// The scan order is random but the verdicts must not depend on the seed.
	rng := rand.New(rand.NewSource(6))
	core := cluster(rng, 0, 150, 0, 0, 8)
	params := Params{R: 2, K: 4}
	want := sortedIDs(New(NestedLoop, 1).Detect(core, nil, params).OutlierIDs)
	for seed := int64(2); seed < 10; seed++ {
		got := sortedIDs(New(NestedLoop, seed).Detect(core, nil, params).OutlierIDs)
		if !equalIDs(got, want) {
			t.Errorf("seed %d changes verdicts", seed)
		}
	}
}

func TestNestedLoopEarlyExitCheaperOnDense(t *testing.T) {
	// Lemma 4.1: same cardinality, 4x denser domain → fewer comparisons.
	rng := rand.New(rand.NewSource(8))
	makeUniform := func(extent float64) []geom.Point {
		pts := make([]geom.Point, 2000)
		for i := range pts {
			pts[i] = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * extent, rng.Float64() * extent}}
		}
		return pts
	}
	dense := makeUniform(50)
	sparse := makeUniform(100) // 4x the area
	params := Params{R: 5, K: 4}
	nl := New(NestedLoop, 3)
	denseCost := nl.Detect(dense, nil, params).Stats.DistComps
	sparseCost := nl.Detect(sparse, nil, params).Stats.DistComps
	if sparseCost <= denseCost {
		t.Errorf("sparse cost %d should exceed dense cost %d", sparseCost, denseCost)
	}
}

func TestCellBasedPruningOnDense(t *testing.T) {
	// A very dense uniform dataset should be resolved almost entirely by
	// the L1 inlier rule: near zero distance computations.
	rng := rand.New(rand.NewSource(10))
	pts := make([]geom.Point, 3000)
	for i := range pts {
		pts[i] = geom.Point{ID: uint64(i), Coords: []float64{rng.Float64() * 10, rng.Float64() * 10}}
	}
	res := New(CellBased, 0).Detect(pts, nil, Params{R: 5, K: 4})
	if res.Stats.DistComps > int64(len(pts)) {
		t.Errorf("dense data: %d distance comps, want near zero (pruning failed)", res.Stats.DistComps)
	}
	if res.Stats.CellsPruned == 0 {
		t.Error("no cells pruned on dense data")
	}
}

func TestCellBasedPruningOnVerySparse(t *testing.T) {
	// Points isolated beyond 2r from each other: the L2 outlier rule should
	// fire with no distance computations.
	var pts []geom.Point
	for i := 0; i < 50; i++ {
		pts = append(pts, geom.Point{ID: uint64(i), Coords: []float64{float64(i) * 100, 0}})
	}
	res := New(CellBased, 0).Detect(pts, nil, Params{R: 5, K: 4})
	if len(res.OutlierIDs) != 50 {
		t.Errorf("got %d outliers, want 50", len(res.OutlierIDs))
	}
	if res.Stats.DistComps != 0 {
		t.Errorf("sparse isolated points: %d distance comps, want 0", res.Stats.DistComps)
	}
}

func TestCellSideAndL2Radius(t *testing.T) {
	if got := CellSide(2, 5.0); got <= 1.76 || got >= 1.77 {
		t.Errorf("CellSide(2,5) = %g, want ≈ 1.7678", got)
	}
	if got := L2Radius(2); got != 3 {
		t.Errorf("L2Radius(2) = %d, want 3 (49-cell block)", got)
	}
	if got := L2Radius(1); got != 2 {
		t.Errorf("L2Radius(1) = %d, want 2", got)
	}
	if got := L2Radius(4); got != 4 {
		t.Errorf("L2Radius(4) = %d, want 4", got)
	}
}

func TestStatsAddAndCost(t *testing.T) {
	var s Stats
	s.Add(Stats{DistComps: 3, PointsIndexed: 2, CellsPruned: 1})
	s.Add(Stats{DistComps: 7, PointsIndexed: 8, CellsPruned: 9})
	if s.DistComps != 10 || s.PointsIndexed != 10 || s.CellsPruned != 10 {
		t.Errorf("Add = %+v", s)
	}
	if s.Cost() != 20 {
		t.Errorf("Cost = %d, want 20", s.Cost())
	}
}

func TestDetectDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	core := cluster(rng, 0, 50, 0, 0, 5)
	support := cluster(rng, 1000, 20, 3, 3, 5)
	coreCopy := make([]geom.Point, len(core))
	supportCopy := make([]geom.Point, len(support))
	for i, p := range core {
		coreCopy[i] = p.Clone()
	}
	for i, p := range support {
		supportCopy[i] = p.Clone()
	}
	for _, kind := range allKinds {
		New(kind, 7).Detect(core, support, Params{R: 2, K: 3})
		for i := range core {
			if !core[i].Equal(coreCopy[i]) {
				t.Fatalf("%v mutated core[%d]", kind, i)
			}
		}
		for i := range support {
			if !support[i].Equal(supportCopy[i]) {
				t.Fatalf("%v mutated support[%d]", kind, i)
			}
		}
	}
}

func TestNewPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Kind(42), 0)
}

func TestInvalidParamsPanic(t *testing.T) {
	for _, kind := range allKinds {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%v: expected panic on invalid params", kind)
				}
			}()
			New(kind, 0).Detect([]geom.Point{{ID: 1, Coords: []float64{0, 0}}}, nil, Params{R: -1, K: 1})
		}()
	}
}
