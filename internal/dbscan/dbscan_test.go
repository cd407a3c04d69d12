package dbscan

import (
	"fmt"
	"math/rand"
	"testing"

	"dod/internal/core"
	"dod/internal/geom"
)

var testParams = Params{Eps: 2, MinPts: 4}

// blob generates n points around (cx, cy) within a tight spread.
func blob(rng *rand.Rand, startID uint64, n int, cx, cy, spread float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			ID:     startID + uint64(i),
			Coords: []float64{cx + rng.NormFloat64()*spread, cy + rng.NormFloat64()*spread},
		}
	}
	return pts
}

// threeBlobs builds three well-separated clusters plus isolated noise.
func threeBlobs(seed int64) (points []geom.Point, noiseIDs []uint64) {
	rng := rand.New(rand.NewSource(seed))
	points = append(points, blob(rng, 0, 200, 10, 10, 0.8)...)
	points = append(points, blob(rng, 1000, 150, 50, 10, 0.8)...)
	points = append(points, blob(rng, 2000, 180, 30, 50, 0.8)...)
	for i, c := range [][]float64{{90, 90}, {5, 90}, {90, 5}} {
		id := uint64(9000 + i)
		points = append(points, geom.Point{ID: id, Coords: c})
		noiseIDs = append(noiseIDs, id)
	}
	return points, noiseIDs
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{Eps: 1, MinPts: 2}).Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	if err := (Params{Eps: 0, MinPts: 2}).Validate(); err == nil {
		t.Error("eps=0 accepted")
	}
	if err := (Params{Eps: 1, MinPts: 0}).Validate(); err == nil {
		t.Error("minPts=0 accepted")
	}
}

func TestCentralizedThreeBlobs(t *testing.T) {
	points, noiseIDs := threeBlobs(1)
	res, err := Cluster(points, testParams)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 3 {
		t.Fatalf("got %d clusters, want 3", res.NumClusters)
	}
	for _, id := range noiseIDs {
		if res.Labels[id] != Noise {
			t.Errorf("isolated point %d labeled %d, want noise", id, res.Labels[id])
		}
	}
	// All members of one blob must share a label.
	blobLabel := res.Labels[0]
	for id := uint64(0); id < 200; id++ {
		if res.Labels[id] != blobLabel {
			t.Fatalf("blob 1 split: point %d has label %d != %d", id, res.Labels[id], blobLabel)
		}
	}
	// Different blobs must have different labels.
	if res.Labels[0] == res.Labels[1000] || res.Labels[1000] == res.Labels[2000] {
		t.Error("separate blobs merged")
	}
}

func TestCentralizedAllNoise(t *testing.T) {
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Point{ID: uint64(i), Coords: []float64{float64(i) * 100, 0}})
	}
	res, err := Cluster(pts, testParams)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 0 {
		t.Errorf("got %d clusters, want 0", res.NumClusters)
	}
	for id, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d labeled %d", id, l)
		}
	}
}

func TestCentralizedSingleDenseCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := blob(rng, 0, 500, 0, 0, 1.5)
	res, err := Cluster(pts, testParams)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Errorf("got %d clusters, want 1", res.NumClusters)
	}
}

// checkAgainstDefinition holds a clustering to DBSCAN's O(n²) definition,
// which fixes everything but which cluster a border point joins: a point is
// core iff at least MinPts points (itself included) lie within Eps; two core
// points share a label iff a chain of core points, each within Eps of the
// next, connects them; a non-core point is noise iff no core point lies
// within Eps of it, and otherwise carries the label of one that does.
func checkAgainstDefinition(t *testing.T, points []geom.Point, params Params, res *Result) {
	t.Helper()
	n := len(points)
	near := func(i, j int) bool { return geom.WithinDist(points[i], points[j], params.Eps) }
	core := make([]bool, n)
	for i := range points {
		count := 0
		for j := range points {
			if near(i, j) {
				count++
			}
		}
		core[i] = count >= params.MinPts
	}
	comp := make([]int, n) // a core point's component, named by its smallest member
	for i := range comp {
		comp[i] = -1
	}
	for i := range points {
		if !core[i] || comp[i] >= 0 {
			continue
		}
		comp[i] = i
		for queue := []int{i}; len(queue) > 0; queue = queue[1:] {
			for j := range points {
				if core[j] && comp[j] < 0 && near(queue[0], j) {
					comp[j] = i
					queue = append(queue, j)
				}
			}
		}
	}
	labelOf := map[int]int{} // component -> label
	compOf := map[int]int{}  // label -> component
	for i, p := range points {
		label := res.Labels[p.ID]
		if !core[i] {
			reachable, matched := false, false
			for j := range points {
				if core[j] && near(i, j) {
					reachable = true
					matched = matched || res.Labels[points[j].ID] == label
				}
			}
			if reachable != matched || (!reachable && label != Noise) {
				t.Fatalf("non-core point %d %v labeled %d: core point in reach %v, one of them so labeled %v",
					p.ID, p.Coords, label, reachable, matched)
			}
			continue
		}
		if label == Noise {
			t.Fatalf("core point %d %v labeled noise", p.ID, p.Coords)
		}
		if want, seen := labelOf[comp[i]]; seen && want != label {
			t.Fatalf("core point %d %v labeled %d, the rest of its density-connected component %d", p.ID, p.Coords, label, want)
		}
		if c, seen := compOf[label]; seen && c != comp[i] {
			t.Fatalf("label %d joins core points %d and %d, which no core chain connects", label, points[c].ID, p.ID)
		}
		labelOf[comp[i]], compOf[label] = label, comp[i]
	}
	if res.NumClusters != len(labelOf) {
		t.Fatalf("NumClusters = %d, definition has %d", res.NumClusters, len(labelOf))
	}
}

// TestNeighborsAcrossShrunkCells is the regression for an extent that is
// not a multiple of Eps: over [0, 2.5·Eps] a grid that shrinks its cells to
// tile the extent makes three cells of 0.83·Eps, which puts the points at
// 0.8·Eps and 1.7·Eps — 0.9·Eps apart — two cells apart, outside each
// other's 3-cell block, and splits the one chain into two clusters.
func TestNeighborsAcrossShrunkCells(t *testing.T) {
	params := Params{Eps: 2, MinPts: 2}
	var pts []geom.Point
	for i, x := range []float64{0, 0.8, 1.7, 2.5} {
		pts = append(pts, geom.Point{ID: uint64(i), Coords: []float64{x * params.Eps}})
	}
	res, err := Cluster(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Errorf("got %d clusters (%v), want the one chain", res.NumClusters, res.Labels)
	}
	checkAgainstDefinition(t, pts, params, res)
}

// TestCentralizedMatchesDefinition checks Cluster against the definition on
// extents that are no multiple of Eps, with half the sites of a jittered
// lattice of pitch 0.93·Eps occupied: nearest pairs sit just inside Eps, so
// one missed pair changes who is core or connected.
func TestCentralizedMatchesDefinition(t *testing.T) {
	params := Params{Eps: 1, MinPts: 3}
	const pitch = 0.93
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w, h := 2+rng.Float64()*5, 2+rng.Float64()*5
			var pts []geom.Point
			for x := 0.0; x < w; x += pitch {
				for y := 0.0; y < h; y += pitch {
					if rng.Intn(2) == 0 {
						continue
					}
					pts = append(pts, geom.Point{ID: uint64(len(pts)), Coords: []float64{
						x + rng.Float64()*0.06, y + rng.Float64()*0.06,
					}})
				}
			}
			res, err := Cluster(pts, params)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstDefinition(t, pts, params, res)
		})
	}
}

// sameClustering compares two results up to label renumbering, on core
// structure: every pair of points in the same cluster in a must be in the
// same cluster in b and vice versa. Noise must match exactly.
func sameClustering(t *testing.T, a, b *Result, ids []uint64) {
	t.Helper()
	if a.NumClusters != b.NumClusters {
		t.Errorf("cluster counts differ: %d vs %d", a.NumClusters, b.NumClusters)
	}
	mapping := map[int]int{}
	for _, id := range ids {
		la, lb := a.Labels[id], b.Labels[id]
		if (la == Noise) != (lb == Noise) {
			t.Fatalf("point %d: noise status differs (%d vs %d)", id, la, lb)
		}
		if la == Noise {
			continue
		}
		if want, ok := mapping[la]; ok {
			if lb != want {
				t.Fatalf("point %d: label %d maps to both %d and %d", id, la, want, lb)
			}
		} else {
			mapping[la] = lb
		}
	}
	// The mapping must be injective.
	seen := map[int]bool{}
	for _, v := range mapping {
		if seen[v] {
			t.Fatal("two clusters of a merged into one cluster of b")
		}
		seen[v] = true
	}
}

func TestDistributedMatchesCentralized(t *testing.T) {
	points, _ := threeBlobs(3)
	ids := make([]uint64, len(points))
	for i, p := range points {
		ids[i] = p.ID
	}
	want, err := Cluster(points, testParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, partitions := range []int{4, 16, 64} {
		got, err := ClusterDistributed(points, testParams, core.AreaOptions{
			NumPartitions: partitions, NumReducers: 4, Seed: 5,
		})
		if err != nil {
			t.Fatalf("partitions=%d: %v", partitions, err)
		}
		sameClustering(t, want, got, ids)
	}
}

func TestDistributedClusterSpanningPartitions(t *testing.T) {
	// A single elongated cluster crossing many partition boundaries: the
	// merge rule must weld every local fragment into one global cluster.
	rng := rand.New(rand.NewSource(7))
	var pts []geom.Point
	for i := 0; i < 800; i++ {
		x := float64(i) * 0.25 // a 200-unit-long dense line
		pts = append(pts, geom.Point{
			ID:     uint64(i),
			Coords: []float64{x, 50 + rng.NormFloat64()*0.5},
		})
	}
	res, err := ClusterDistributed(pts, testParams, core.AreaOptions{NumPartitions: 36, NumReducers: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("spanning cluster fragmented into %d clusters", res.NumClusters)
	}
	for _, p := range pts {
		if res.Labels[p.ID] != 0 {
			t.Fatalf("point %d labeled %d", p.ID, res.Labels[p.ID])
		}
	}
}

func TestDistributedRandomizedEquivalence(t *testing.T) {
	// Property test over random well-separated blob layouts.
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		var pts []geom.Point
		id := uint64(0)
		blobs := 2 + rng.Intn(4)
		for b := 0; b < blobs; b++ {
			// Blob centers on a coarse lattice: separation >> eps.
			cx := float64(20 + 40*(b%3))
			cy := float64(20 + 40*(b/3))
			n := 80 + rng.Intn(120)
			for i := 0; i < n; i++ {
				pts = append(pts, geom.Point{ID: id, Coords: []float64{
					cx + rng.NormFloat64(), cy + rng.NormFloat64(),
				}})
				id++
			}
		}
		ids := make([]uint64, len(pts))
		for i, p := range pts {
			ids[i] = p.ID
		}
		want, err := Cluster(pts, testParams)
		if err != nil {
			t.Fatal(err)
		}
		if want.NumClusters != blobs {
			t.Fatalf("trial %d: centralized found %d clusters, want %d", trial, want.NumClusters, blobs)
		}
		got, err := ClusterDistributed(pts, testParams, core.AreaOptions{NumPartitions: 25, NumReducers: 5, Seed: int64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		sameClustering(t, want, got, ids)
	}
}

func TestDistributedValidation(t *testing.T) {
	if _, err := ClusterDistributed(nil, testParams, core.AreaOptions{}); err == nil {
		t.Error("empty dataset accepted")
	}
	pts := []geom.Point{{ID: 1, Coords: []float64{0, 0}}}
	if _, err := ClusterDistributed(pts, Params{Eps: -1, MinPts: 2}, core.AreaOptions{}); err == nil {
		t.Error("bad params accepted")
	}
}

func TestFactRoundTrip(t *testing.T) {
	cases := []localLabel{
		{pointID: 0, partition: 3, label: Noise, isCore: false, isHome: true},
		{pointID: 12345, partition: 7, label: 42, isCore: true, isHome: false},
		{pointID: 1 << 60, partition: 0, label: 0, isCore: true, isHome: true},
	}
	for _, f := range cases {
		got, err := decodeFact(f.partition, encodeFact(f))
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Errorf("roundtrip %+v -> %+v", f, got)
		}
	}
	if _, err := decodeFact(0, nil); err == nil {
		t.Error("empty fact accepted")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind()
	a, b, c := mergeKey{0, 1}, mergeKey{1, 2}, mergeKey{2, 3}
	uf.union(a, b)
	if uf.find(a) != uf.find(b) {
		t.Error("a and b not merged")
	}
	if uf.find(a) == uf.find(c) {
		t.Error("c spuriously merged")
	}
	uf.union(b, c)
	if uf.find(a) != uf.find(c) {
		t.Error("transitive union failed")
	}
}
