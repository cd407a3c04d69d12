package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSet builds a random PointSet and its row-oriented mirror.
func randSet(rng *rand.Rand, dim, n int) (*PointSet, []Point) {
	pts := make([]Point, n)
	for i := range pts {
		coords := make([]float64, dim)
		for k := range coords {
			// Mix magnitudes so float rounding differences would surface.
			coords[k] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
		pts[i] = Point{ID: uint64(i), Coords: coords}
	}
	return PointSetOf(pts), pts
}

// TestPointSetDist2BitIdentical pins Dist2Coords to the exact bits of Dist2 —
// the columnar kernel must preserve the row kernel's accumulation order,
// otherwise fixed-seed detector outputs could flip on near-threshold pairs.
func TestPointSetDist2BitIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		n := 2 + rng.Intn(40)
		set, pts := randSet(rng, dim, n)
		for trial := 0; trial < 50; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			got := set.Dist2Coords(j, set.CoordsAt(i))
			want := Dist2(pts[i], pts[j])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("dim %d: Dist2Coords(%d, row %d)=%x want %x", dim, j, i,
					math.Float64bits(got), math.Float64bits(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPointSetWithin2Equivalence: Within2's early-exit verdict equals
// WithinDist for every pair, including radii engineered to land close to
// actual pair distances.
func TestPointSetWithin2Equivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(6)
		n := 2 + rng.Intn(40)
		set, pts := randSet(rng, dim, n)
		for trial := 0; trial < 50; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			r := rng.Float64() * 3
			if trial%4 == 0 {
				// Exercise the boundary: r exactly the pair distance.
				r = math.Sqrt(Dist2(pts[i], pts[j]))
			}
			if set.Within2(i, j, r*r) != WithinDist(pts[i], pts[j], r) {
				t.Logf("dim %d pair (%d,%d) r=%g: verdicts disagree", dim, i, j, r)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPointSetRoundTrip: Append/At/Points preserve IDs and coordinates, and
// Bounds matches the row-oriented Bounds bit for bit.
func TestPointSetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 3, 5} {
		set, pts := randSet(rng, dim, 17)
		if set.Len() != len(pts) || set.Dim != dim {
			t.Fatalf("dim %d: Len/Dim mismatch", dim)
		}
		for i, p := range pts {
			if !set.At(i).Equal(p) {
				t.Fatalf("dim %d: At(%d) = %v, want %v", dim, i, set.At(i), p)
			}
		}
		back := set.Points()
		for i := range back {
			if !back[i].Equal(pts[i]) {
				t.Fatalf("dim %d: Points()[%d] differs", dim, i)
			}
		}
		got, want := set.Bounds(), Bounds(pts)
		for k := 0; k < dim; k++ {
			if math.Float64bits(got.Min[k]) != math.Float64bits(want.Min[k]) ||
				math.Float64bits(got.Max[k]) != math.Float64bits(want.Max[k]) {
				t.Fatalf("dim %d: Bounds mismatch: %v vs %v", dim, got, want)
			}
		}
	}
}

// TestPointSetResetReuse: Reset keeps capacity and allows dimension change.
func TestPointSetResetReuse(t *testing.T) {
	set := NewPointSet(2, 4)
	set.Append(Point{ID: 1, Coords: []float64{1, 2}})
	set.Reset(3)
	if set.Len() != 0 || set.Dim != 3 {
		t.Fatalf("after Reset: Len=%d Dim=%d", set.Len(), set.Dim)
	}
	set.Append(Point{ID: 9, Coords: []float64{4, 5, 6}})
	if p := set.At(0); p.ID != 9 || p.Coords[2] != 6 {
		t.Fatalf("after Reset append: %v", set.At(0))
	}
}

// TestPointSetAppendSet: bulk append preserves order and contents.
func TestPointSetAppendSet(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, aPts := randSet(rng, 2, 5)
	b, bPts := randSet(rng, 2, 7)
	a.AppendSet(b)
	all := append(append([]Point(nil), aPts...), bPts...)
	if a.Len() != len(all) {
		t.Fatalf("Len=%d want %d", a.Len(), len(all))
	}
	for i := range all {
		if !a.At(i).Equal(all[i]) {
			t.Fatalf("At(%d) = %v, want %v", i, a.At(i), all[i])
		}
	}
}

// TestCellOrdinalCoordsMatchesFlatten: the inlined ordinal equals Flatten
// of the per-dimension cell indices, each computed and clamped on its own,
// on random grids and points, including out-of-domain points.
func TestCellOrdinalCoordsMatchesFlatten(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + rng.Intn(4)
		min := make([]float64, dim)
		max := make([]float64, dim)
		dims := make([]int, dim)
		for k := 0; k < dim; k++ {
			min[k] = rng.Float64() * 10
			max[k] = min[k] + rng.Float64()*50
			dims[k] = 1 + rng.Intn(12)
		}
		g := NewGrid(Rect{Min: min, Max: max}, dims)
		for trial := 0; trial < 40; trial++ {
			coords := make([]float64, dim)
			for k := range coords {
				coords[k] = min[k] - 5 + rng.Float64()*(max[k]-min[k]+10)
			}
			idx := make([]int, dim)
			for k, v := range coords {
				c := int((v - g.Domain.Min[k]) / g.CellWidth(k))
				if c < 0 {
					c = 0
				}
				if c >= g.Dims[k] {
					c = g.Dims[k] - 1
				}
				idx[k] = c
			}
			if g.CellOrdinalCoords(coords) != g.Flatten(idx) {
				t.Logf("grid %v: ordinal mismatch at %v", dims, coords)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestCellOrdinalAllocFree: the grid ordinal computation performs no
// allocations — it runs once per point in every indexing loop.
func TestCellOrdinalAllocFree(t *testing.T) {
	g := NewGrid(Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, []int{8, 8})
	p := Point{Coords: []float64{3.3, 7.7}}
	if n := testing.AllocsPerRun(100, func() { _ = g.CellOrdinal(p) }); n != 0 {
		t.Fatalf("CellOrdinal allocates %v per call, want 0", n)
	}
}

func BenchmarkPointSetWithin2(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{2, 3, 8} {
		set, _ := randSet(rng, dim, 1024)
		b.Run(map[int]string{2: "2D", 3: "3D", 8: "8D"}[dim], func(b *testing.B) {
			b.ReportAllocs()
			hits := 0
			for i := 0; i < b.N; i++ {
				if set.Within2(i&1023, (i*7)&1023, 2.0) {
					hits++
				}
			}
			_ = hits
		})
	}
}
