package knn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dod/internal/core"
	"dod/internal/geom"
)

// oracleTopN is the definition, computed the quadratic way: each point's
// distance to its k-th nearest other point (by ID), every point ranked by
// descending distance with ties by ascending ID.
func oracleTopN(points []geom.Point, k int) []Outlier {
	out := make([]Outlier, 0, len(points))
	ds := make([]float64, 0, len(points))
	for _, p := range points {
		ds = ds[:0]
		for _, q := range points {
			if q.ID != p.ID {
				ds = append(ds, geom.Dist(p, q))
			}
		}
		sort.Float64s(ds)
		out = append(out, Outlier{ID: p.ID, Dist: ds[k-1]})
	}
	slices.SortFunc(out, func(a, b Outlier) int {
		if a.Dist != b.Dist {
			if a.Dist > b.Dist {
				return -1
			}
			return 1
		}
		if a.ID < b.ID {
			return -1
		}
		return 1
	})
	return out
}

// latticePoints draws n points with coordinates on multiples of 0.5 in
// [0, span/2], so distances tie exactly and many points coincide.
func latticePoints(seed int64, n, d, span int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		c := make([]float64, d)
		for j := range c {
			c[j] = 0.5 * float64(rng.Intn(span+1))
		}
		pts[i] = geom.Point{ID: uint64(1000 + 7*i), Coords: c}
	}
	return pts
}

func uniformPoints(seed int64, n, d int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		c := make([]float64, d)
		for j := range c {
			c[j] = rng.Float64()
		}
		pts[i] = geom.Point{ID: uint64(i + 1), Coords: c}
	}
	return pts
}

func requireBitIdentical(t *testing.T, label string, got, want []Outlier) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outliers, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: rank %d is %d (%v), want %d (%v)", label, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// TestTopNMatchesOracleBits holds TopN and TopNDistributed to the O(n²)
// definition bit for bit, over every point's rank, on lattice inputs with
// exact ties at d = 1-4 and on random points at d = 8. The distributed run
// with support radius 0.25 sends every point whose k-th distance exceeds
// 0.25 (every point without k coincident partners on the lattice) to
// round 2; the test fails if the oracle has no such point.
func TestTopNMatchesOracleBits(t *testing.T) {
	type input struct {
		name string
		pts  []geom.Point
	}
	var inputs []input
	for d, span := range []int{1: 40, 2: 12, 3: 6, 4: 4} {
		if d == 0 {
			continue
		}
		for seed := int64(0); seed < 3; seed++ {
			inputs = append(inputs, input{fmt.Sprintf("lattice d=%d seed=%d", d, seed), latticePoints(seed, 60+50*d, d, span)})
		}
	}
	for seed := int64(0); seed < 2; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("uniform d=8 seed=%d", seed), uniformPoints(seed, 300, 8)})
	}
	const smallS = 0.25
	for _, in := range inputs {
		for _, k := range []int{1, 3, 6} {
			want := oracleTopN(in.pts, k)
			params := Params{K: k, N: len(in.pts)}
			got, err := TopN(in.pts, params)
			if err != nil {
				t.Fatalf("%s k=%d: TopN: %v", in.name, k, err)
			}
			requireBitIdentical(t, fmt.Sprintf("%s k=%d TopN", in.name, k), got, want)

			if want[0].Dist <= smallS {
				t.Fatalf("%s k=%d: no point has its k-th distance above %g, so round 2 would not run", in.name, k, smallS)
			}
			for _, s := range []float64{0, smallS} {
				got, err := TopNDistributed(in.pts, params, s, core.AreaOptions{NumPartitions: 9, NumReducers: 3, Seed: int64(k)})
				if err != nil {
					t.Fatalf("%s k=%d s=%g: TopNDistributed: %v", in.name, k, s, err)
				}
				requireBitIdentical(t, fmt.Sprintf("%s k=%d s=%g TopNDistributed", in.name, k, s), got, want)
			}
		}
	}
}
