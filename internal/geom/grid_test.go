package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestGridBasics(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 20), []int{5, 4})
	if g.NumCells() != 20 {
		t.Fatalf("NumCells = %d, want 20", g.NumCells())
	}
	if g.CellWidth(0) != 2 || g.CellWidth(1) != 5 {
		t.Fatalf("widths = %g,%g", g.CellWidth(0), g.CellWidth(1))
	}
}

func TestGridCellCoords(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 10), []int{10, 10})
	cases := []struct {
		p    Point
		want [2]int
	}{
		{pt(0, 0), [2]int{0, 0}},
		{pt(0.5, 9.5), [2]int{0, 9}},
		{pt(10, 10), [2]int{9, 9}}, // upper boundary → last cell
		{pt(-3, 50), [2]int{0, 9}}, // out of domain → clamped
		{pt(4.999, 5.0), [2]int{4, 5}},
	}
	for _, tc := range cases {
		got := g.Unflatten(g.CellOrdinal(tc.p))
		if got[0] != tc.want[0] || got[1] != tc.want[1] {
			t.Errorf("cell of %v = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestGridFlattenRoundTrip(t *testing.T) {
	g := NewGrid(NewRect([]float64{0, 0, 0}, []float64{1, 1, 1}), []int{3, 4, 5})
	for ord := 0; ord < g.NumCells(); ord++ {
		idx := g.Unflatten(ord)
		if back := g.Flatten(idx); back != ord {
			t.Fatalf("roundtrip %d -> %v -> %d", ord, idx, back)
		}
	}
}

func TestGridCellRectContainsItsPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGrid(r2(-5, -5, 5, 5), []int{7, 9})
	for i := 0; i < 1000; i++ {
		p := pt(rng.Float64()*10-5, rng.Float64()*10-5)
		idx := g.Unflatten(g.CellOrdinal(p))
		rect := g.CellRect(idx)
		if !rect.Contains(p) {
			t.Fatalf("cell rect %v does not contain %v (idx %v)", rect, p, idx)
		}
	}
}

func TestGridCellRectsTileDomain(t *testing.T) {
	g := NewGrid(r2(0, 0, 6, 6), []int{3, 3})
	var total float64
	for ord := 0; ord < g.NumCells(); ord++ {
		total += g.CellRect(g.Unflatten(ord)).Area()
	}
	if total != g.Domain.Area() {
		t.Errorf("cells area %g != domain area %g", total, g.Domain.Area())
	}
}

func TestGridNeighborhood(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 10), []int{10, 10})
	count := func(idx []int, radius int) int {
		n := 0
		g.Neighborhood(idx, radius, func(int) { n++ })
		return n
	}
	if got := count([]int{5, 5}, 1); got != 9 {
		t.Errorf("interior radius-1 block = %d, want 9", got)
	}
	if got := count([]int{5, 5}, 3); got != 49 {
		t.Errorf("interior radius-3 block = %d, want 49 (Lemma 4.2)", got)
	}
	if got := count([]int{0, 0}, 1); got != 4 {
		t.Errorf("corner radius-1 block = %d, want 4", got)
	}
	if got := count([]int{0, 5}, 1); got != 6 {
		t.Errorf("edge radius-1 block = %d, want 6", got)
	}
}

func TestGridNeighborhoodIncludesSelfAndUnique(t *testing.T) {
	g := NewGrid(r2(0, 0, 10, 10), []int{6, 6})
	idx := []int{2, 3}
	self := g.Flatten(idx)
	seen := map[int]bool{}
	g.Neighborhood(idx, 2, func(ord int) {
		if seen[ord] {
			t.Fatalf("duplicate ordinal %d", ord)
		}
		seen[ord] = true
	})
	if !seen[self] {
		t.Error("neighborhood must include the center cell")
	}
}

func TestGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero cell count")
		}
	}()
	NewGrid(r2(0, 0, 1, 1), []int{0, 2})
}

// TestCoverRowsHoldsEveryPoint: every point of a rectangle, its corners
// and their neighbouring floats included, lands in a cell of the
// rectangle's CoverRows block, the rows come in row-major order, and
// rectangles reaching past the domain, or to ±Inf, clip to the grid.
func TestCoverRowsHoldsEveryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(4)
		lo, hi, dims := make([]float64, d), make([]float64, d), make([]int, d)
		for i := range lo {
			lo[i] = rng.NormFloat64() * 100
			hi[i] = lo[i] + rng.Float64()*50
			dims[i] = 1 + rng.Intn(9)
		}
		g := NewGrid(NewRect(lo, hi), dims)
		r := Rect{Min: make([]float64, d), Max: make([]float64, d)}
		for i := range r.Min {
			a := lo[i] + (rng.Float64()*1.4-0.2)*(hi[i]-lo[i])
			b := a + rng.Float64()*(hi[i]-lo[i])/2
			switch rng.Intn(8) {
			case 0:
				a = math.Inf(-1)
			case 1:
				b = math.Inf(1)
			case 2:
				a = g.Boundary(i, rng.Intn(dims[i]+1))
				b = max(a, b)
			}
			r.Min[i], r.Max[i] = a, b
		}
		od := NewOdometer(d)
		in := map[int]bool{}
		last := -1
		g.CoverRows(&od, r, func(base, a, b int) {
			for c := base + a; c <= base+b; c++ {
				if c <= last {
					t.Fatalf("trial %d: cell %d after %d", trial, c, last)
				}
				last = c
				in[c] = true
			}
		})
		for k := 0; k < 64; k++ {
			p := make([]float64, d)
			for i := range p {
				switch rng.Intn(4) {
				case 0:
					p[i] = r.Min[i]
				case 1:
					p[i] = r.Max[i]
				default:
					lo, hi := max(r.Min[i], g.Domain.Min[i]-10), min(r.Max[i], g.Domain.Max[i]+10)
					p[i] = lo + rng.Float64()*(hi-lo)
				}
				// A point far past the domain stands in for an infinite
				// bound: the lookup clamps it to the edge cell either way.
				if math.IsInf(p[i], -1) {
					p[i] = g.Domain.Min[i] - 10
				} else if math.IsInf(p[i], 1) {
					p[i] = g.Domain.Max[i] + 10
				}
				if p[i] < r.Min[i] || p[i] > r.Max[i] {
					p[i] = r.Min[i] // a clipped interval can leave no room; its corner is still in r
				}
			}
			if ord := g.CellOrdinalCoords(p); !in[ord] {
				t.Fatalf("trial %d: point %v of %v lands in cell %d, outside the block", trial, p, r, ord)
			}
		}
	}
}

// TestCellOfClampsFarValues: coordinates far past either end of the domain,
// infinite or NaN clamp to an edge cell. Converting such a value to int
// before the clamp sent 1e300 and +Inf to cell 0 on amd64.
func TestCellOfClampsFarValues(t *testing.T) {
	g := NewGrid(Rect{Min: []float64{0}, Max: []float64{10}}, []int{5})
	for _, tc := range []struct {
		v    float64
		want int
	}{
		{math.Inf(-1), 0}, {-1e300, 0}, {-1, 0}, {0, 0}, {1.999, 0}, {2, 1},
		{9.999, 4}, {10, 4}, {11, 4}, {1e19, 4}, {1e300, 4}, {math.Inf(1), 4},
		{math.NaN(), 0},
	} {
		if got := g.cellOf(0, tc.v); got != tc.want {
			t.Errorf("cellOf(%g) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

// TestWithinHugeRadius: a walk whose radius reaches past the domain on
// both sides covers every cell, so it reports every point.
func TestWithinHugeRadius(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 200)
	for i := range pts {
		pts[i] = Point{ID: uint64(i), Coords: []float64{rng.Float64() * 10, rng.Float64() * 10}}
	}
	ix := NewCellIndex(PointSetOf(pts), 1)
	od := NewOdometer(2)
	seen := 0
	ix.Within(&od, pts[0].Coords, 1e300, func(int) { seen++ })
	if seen != len(pts) {
		t.Errorf("Within(radius 1e300) reported %d of %d points", seen, len(pts))
	}
}
