package geom

import (
	"math"
	"math/rand"
	"testing"
)

func r2(x1, y1, x2, y2 float64) Rect {
	return NewRect([]float64{x1, y1}, []float64{x2, y2})
}

func TestNewRectValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for inverted bounds")
		}
	}()
	NewRect([]float64{1}, []float64{0})
}

func TestRectContains(t *testing.T) {
	r := r2(0, 0, 10, 10)
	cases := []struct {
		p    Point
		want bool
	}{
		{pt(5, 5), true},
		{pt(0, 0), true},   // min corner inclusive
		{pt(10, 10), true}, // max corner inclusive
		{pt(10.0001, 5), false},
		{pt(-0.0001, 5), false},
		{pt(5, 11), false},
	}
	for _, tc := range cases {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestRectOverlaps(t *testing.T) {
	a := r2(0, 0, 10, 10)
	cases := []struct {
		b    Rect
		want bool
	}{
		{r2(5, 5, 15, 15), true},
		{r2(10, 10, 20, 20), true}, // touching corner counts
		{r2(11, 0, 20, 10), false},
		{r2(0, 11, 10, 20), false},
		{r2(2, 2, 8, 8), true}, // contained
	}
	for _, tc := range cases {
		if got := a.Overlaps(tc.b); got != tc.want {
			t.Errorf("Overlaps(%v) = %v, want %v", tc.b, got, tc.want)
		}
		if got := tc.b.Overlaps(a); got != tc.want {
			t.Errorf("Overlaps not symmetric for %v", tc.b)
		}
	}
}

func TestRectAdjacent(t *testing.T) {
	a := r2(0, 0, 1, 1)
	cases := []struct {
		name string
		b    Rect
		want bool
	}{
		{"right edge", r2(1, 0, 2, 1), true},
		{"top edge", r2(0, 1, 1, 2), true},
		{"corner touch", r2(1, 1, 2, 2), true},
		{"gap", r2(1.1, 0, 2, 1), false},
		{"overlap interior", r2(0.5, 0.5, 2, 2), false},
		{"same rect", r2(0, 0, 1, 1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := a.Adjacent(tc.b); got != tc.want {
				t.Errorf("Adjacent = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestRectExpand(t *testing.T) {
	r := r2(0, 0, 10, 10).Expand(2)
	want := r2(-2, -2, 12, 12)
	if !r.Equal(want) {
		t.Errorf("Expand = %v, want %v", r, want)
	}
}

// Union returns the minimal bounding rectangle of r and s as a new
// rectangle: the bounds of a copy of r after Absorb(s).
func (r Rect) Union(s Rect) Rect {
	u := r.Clone()
	u.Absorb(s)
	return u
}

// TestUnionAreaMatchesAbsorb: UnionArea and Enlargement give the bits of
// the absorbed rectangle's Area, infinite and signed-zero bounds included
// (any NaN for a NaN), and Absorb leaves s alone.
func TestUnionAreaMatchesAbsorb(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e308, -1e-308}
	coord := func() float64 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * 10
	}
	for i := 0; i < 2000; i++ {
		d := 1 + rng.Intn(5)
		r, s := Rect{Min: make([]float64, d), Max: make([]float64, d)}, Rect{Min: make([]float64, d), Max: make([]float64, d)}
		for j := 0; j < d; j++ {
			r.Min[j], r.Max[j], s.Min[j], s.Max[j] = coord(), coord(), coord(), coord()
		}
		sCopy := s.Clone()
		area, enl := r.UnionArea(s), r.Enlargement(s)
		u := r.Clone()
		u.Absorb(s)
		if !same(area, u.Area()) {
			t.Fatalf("%v ∪ %v: UnionArea %g, absorbed Area %g", r, s, area, u.Area())
		}
		if want := u.Area() - r.Area(); !same(enl, want) {
			t.Fatalf("%v ∪ %v: Enlargement %g, want %g", r, s, enl, want)
		}
		for j := 0; j < d; j++ {
			if !same(s.Min[j], sCopy.Min[j]) || !same(s.Max[j], sCopy.Max[j]) {
				t.Fatalf("Absorb changed its argument: %v, was %v", s, sCopy)
			}
			wantMin, wantMax := math.Min(r.Min[j], s.Min[j]), math.Max(r.Max[j], s.Max[j])
			if !same(u.Min[j], wantMin) || !same(u.Max[j], wantMax) {
				t.Fatalf("%v ∪ %v: absorbed %v, axis %d want [%g, %g]", r, s, u, j, wantMin, wantMax)
			}
		}
	}
}

func TestRectUnionAndArea(t *testing.T) {
	a, b := r2(0, 0, 2, 2), r2(1, 1, 5, 3)
	u := a.Union(b)
	if !u.Equal(r2(0, 0, 5, 3)) {
		t.Errorf("Union = %v", u)
	}
	if got := u.Area(); got != 15 {
		t.Errorf("Area = %g, want 15", got)
	}
	if got := a.Enlargement(b); got != 15-4 {
		t.Errorf("Enlargement = %g, want 11", got)
	}
}

func TestRectAreaEps(t *testing.T) {
	degenerate := r2(0, 0, 5, 0)
	if degenerate.Area() != 0 {
		t.Fatal("degenerate area should be 0")
	}
	if got := degenerate.AreaEps(0.5); got != 2.5 {
		t.Errorf("AreaEps = %g, want 2.5", got)
	}
}

func TestRectClamp(t *testing.T) {
	r := r2(0, 0, 10, 10)
	p := r.Clamp(Point{ID: 9, Coords: []float64{-5, 20}})
	if p.ID != 9 || p.Coords[0] != 0 || p.Coords[1] != 10 {
		t.Errorf("Clamp = %v", p)
	}
	inside := r.Clamp(pt(3, 4))
	if inside.Coords[0] != 3 || inside.Coords[1] != 4 {
		t.Errorf("Clamp changed interior point: %v", inside)
	}
	// An interior point comes back as is; an outside one is a copy.
	interior := pt(3, 4)
	if allocs := testing.AllocsPerRun(10, func() { r.Clamp(interior) }); allocs != 0 {
		t.Errorf("Clamp of an interior point: %v allocs, want 0", allocs)
	}
	out := Point{Coords: []float64{3, 12}}
	clamped := r.Clamp(out)
	clamped.Coords[0] = -1
	if out.Coords[0] != 3 || out.Coords[1] != 12 {
		t.Errorf("Clamp's out-of-range result aliases its input: %v", out)
	}
}

func TestRectCenter(t *testing.T) {
	c := r2(0, 2, 4, 10).Center()
	if c.Coords[0] != 2 || c.Coords[1] != 6 {
		t.Errorf("Center = %v", c)
	}
}

func TestUnionIsRectangular(t *testing.T) {
	cases := []struct {
		name string
		a, b Rect
		want bool
	}{
		{"abut in x", r2(0, 0, 1, 1), r2(1, 0, 2, 1), true},
		{"abut in y", r2(0, 0, 1, 1), r2(0, 1, 1, 2), true},
		{"abut reversed", r2(1, 0, 2, 1), r2(0, 0, 1, 1), true},
		{"different y extents", r2(0, 0, 1, 1), r2(1, 0, 2, 2), false},
		{"gap", r2(0, 0, 1, 1), r2(2, 0, 3, 1), false},
		{"identical", r2(0, 0, 1, 1), r2(0, 0, 1, 1), false},
		{"corner only", r2(0, 0, 1, 1), r2(1, 1, 2, 2), false},
		{"overlapping", r2(0, 0, 2, 1), r2(1, 0, 3, 1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.a.UnionIsRectangular(tc.b); got != tc.want {
				t.Errorf("UnionIsRectangular = %v, want %v", got, tc.want)
			}
			if got := tc.b.UnionIsRectangular(tc.a); got != tc.want {
				t.Errorf("UnionIsRectangular not symmetric")
			}
		})
	}
}

func TestUnionIsRectangularAreaProperty(t *testing.T) {
	// If the union is rectangular, union area must equal the sum of areas.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := r2(0, 0, 1+rng.Float64(), 1+rng.Float64())
		var b Rect
		switch rng.Intn(3) {
		case 0: // genuine abutment
			b = NewRect([]float64{a.Max[0], a.Min[1]}, []float64{a.Max[0] + 1, a.Max[1]})
		case 1: // random rect
			b = r2(rng.Float64()*3, rng.Float64()*3, 3+rng.Float64(), 3+rng.Float64())
		default: // same extents shifted with gap
			b = NewRect([]float64{a.Max[0] + 0.5, a.Min[1]}, []float64{a.Max[0] + 1.5, a.Max[1]})
		}
		if a.UnionIsRectangular(b) {
			u := a.Union(b)
			if diff := u.Area() - (a.Area() + b.Area()); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("rectangular union %v + %v: area mismatch %g", a, b, diff)
			}
		}
	}
}

func TestContainsRect(t *testing.T) {
	outer := r2(0, 0, 10, 10)
	if !outer.ContainsRect(r2(1, 1, 9, 9)) {
		t.Error("should contain inner rect")
	}
	if !outer.ContainsRect(outer) {
		t.Error("should contain itself")
	}
	if outer.ContainsRect(r2(1, 1, 11, 9)) {
		t.Error("should not contain overflowing rect")
	}
}

func TestRectCloneIndependence(t *testing.T) {
	a := r2(0, 0, 1, 1)
	c := a.Clone()
	c.Min[0] = -5
	if a.Min[0] != 0 {
		t.Error("Clone must not share backing arrays")
	}
}
