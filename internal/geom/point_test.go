package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func pt(coords ...float64) Point { return Point{Coords: coords} }

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", pt(1, 2), pt(1, 2), 0},
		{"unit x", pt(0, 0), pt(1, 0), 1},
		{"3-4-5", pt(0, 0), pt(3, 4), 5},
		{"1d", pt(-2), pt(3), 5},
		{"3d", pt(1, 1, 1), pt(2, 2, 2), math.Sqrt(3)},
		{"negative coords", pt(-3, -4), pt(0, 0), 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Dist(tc.p, tc.q); math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %g, want %g", tc.p, tc.q, got, tc.want)
			}
		})
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Dist(pt(1, 2), pt(1, 2, 3))
}

func TestWithinDist(t *testing.T) {
	p, q := pt(0, 0), pt(3, 4)
	if !WithinDist(p, q, 5) {
		t.Error("boundary distance should count as within (<=)")
	}
	if WithinDist(p, q, 4.999) {
		t.Error("4.999 < 5 should not be within")
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gen := func() Point {
		c := make([]float64, 3)
		for i := range c {
			c[i] = rng.NormFloat64() * 10
		}
		return Point{Coords: c}
	}
	for i := 0; i < 500; i++ {
		a, b, c := gen(), gen(), gen()
		if math.Abs(Dist(a, b)-Dist(b, a)) > 1e-12 {
			t.Fatalf("symmetry violated for %v %v", a, b)
		}
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestDist2ConsistentWithDist(t *testing.T) {
	f := func(x1, y1, x2, y2 float64) bool {
		for _, v := range []float64{x1, y1, x2, y2} {
			if math.IsNaN(v) || math.Abs(v) > 1e150 { // avoid overflow to +Inf
				return true
			}
		}
		p, q := pt(x1, y1), pt(x2, y2)
		d := Dist(p, q)
		return math.Abs(d*d-Dist2(p, q)) <= 1e-6*(1+Dist2(p, q))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBallVolume(t *testing.T) {
	tests := []struct {
		d    int
		r    float64
		want float64
	}{
		{1, 1, 2},                 // a segment of length 2r
		{2, 1, math.Pi},           // π r²
		{2, 5, math.Pi * 25},      // Lemma 4.1's A(p) with r=5
		{3, 1, 4.0 / 3 * math.Pi}, // 4/3 π r³
		{3, 2, 4.0 / 3 * math.Pi * 8},
	}
	for _, tc := range tests {
		if got := BallVolume(tc.d, tc.r); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("BallVolume(%d,%g) = %g, want %g", tc.d, tc.r, got, tc.want)
		}
	}
}

// TestBallVolumeMonteCarlo validates the Γ-function d-ball formula (the
// A(p) of Lemma 4.1) against direct Monte Carlo estimates in 2-5
// dimensions.
func TestBallVolumeMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const samples = 200000
	for d := 2; d <= 5; d++ {
		inside := 0
		for i := 0; i < samples; i++ {
			var s float64
			for j := 0; j < d; j++ {
				v := rng.Float64()*2 - 1
				s += v * v
			}
			if s <= 1 {
				inside++
			}
		}
		cubeVol := math.Pow(2, float64(d))
		estimate := float64(inside) / samples * cubeVol
		want := BallVolume(d, 1)
		if rel := math.Abs(estimate-want) / want; rel > 0.05 {
			t.Errorf("d=%d: Monte Carlo %g vs formula %g (%.1f%% off)", d, estimate, want, rel*100)
		}
	}
	// Scaling: V(r) = V(1)·r^d.
	for d := 1; d <= 4; d++ {
		if got, want := BallVolume(d, 3), BallVolume(d, 1)*math.Pow(3, float64(d)); math.Abs(got-want) > 1e-9*want {
			t.Errorf("d=%d: scaling violated: %g vs %g", d, got, want)
		}
	}
}

func TestBallVolumePanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for d=0")
		}
	}()
	BallVolume(0, 1)
}

func TestBounds(t *testing.T) {
	pts := []Point{pt(1, 5), pt(-2, 3), pt(4, -1)}
	b := Bounds(pts)
	want := NewRect([]float64{-2, -1}, []float64{4, 5})
	if !b.Equal(want) {
		t.Errorf("Bounds = %v, want %v", b, want)
	}
	for _, p := range pts {
		if !b.Contains(p) {
			t.Errorf("bounds %v should contain %v", b, p)
		}
	}
}

func TestBoundsSinglePoint(t *testing.T) {
	b := Bounds([]Point{pt(2, 3)})
	if !b.Equal(NewRect([]float64{2, 3}, []float64{2, 3})) {
		t.Errorf("single-point bounds wrong: %v", b)
	}
}

func TestBoundsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty slice")
		}
	}()
	Bounds(nil)
}

func TestPointCloneIndependence(t *testing.T) {
	p := Point{ID: 7, Coords: []float64{1, 2}}
	c := p.Clone()
	c.Coords[0] = 99
	if p.Coords[0] != 1 {
		t.Error("Clone must not share backing array")
	}
	if !p.Equal(p.Clone()) {
		t.Error("clone should equal original")
	}
}

func TestPointEqual(t *testing.T) {
	a := Point{ID: 1, Coords: []float64{1, 2}}
	if a.Equal(Point{ID: 2, Coords: []float64{1, 2}}) {
		t.Error("different IDs must not be equal")
	}
	if a.Equal(Point{ID: 1, Coords: []float64{1}}) {
		t.Error("different dims must not be equal")
	}
	if a.Equal(Point{ID: 1, Coords: []float64{1, 3}}) {
		t.Error("different coords must not be equal")
	}
}

func TestPointString(t *testing.T) {
	p := Point{ID: 3, Coords: []float64{1.5, -2}}
	if got, want := p.String(), "3:(1.5,-2)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestBoundsContainsAllProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(50)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = pt(rng.NormFloat64()*100, rng.NormFloat64()*100)
		}
		b := Bounds(pts)
		for _, p := range pts {
			if !b.Contains(p) {
				t.Fatalf("trial %d: bounds %v misses %v", trial, b, p)
			}
		}
	}
}

// BallVolume returns the volume of a d-dimensional Euclidean ball of radius
// r. This is A(p) in Lemma 4.1 of the paper (π·r² in two dimensions).
func BallVolume(d int, r float64) float64 {
	if d <= 0 {
		panic("geom: BallVolume requires d >= 1")
	}
	// V_d(r) = π^(d/2) / Γ(d/2 + 1) · r^d
	return math.Pow(math.Pi, float64(d)/2) / math.Gamma(float64(d)/2+1) * math.Pow(r, float64(d))
}
